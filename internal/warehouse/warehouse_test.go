package warehouse

import (
	"strconv"
	"testing"
	"testing/quick"
)

func customerSchema() Schema {
	return Schema{
		Table: "customers",
		Key:   "id",
		Columns: []Column{
			{Name: "id", Type: TypeString, Match: MatchExact},
			{Name: "name", Type: TypeString, Match: MatchName},
			{Name: "phone", Type: TypeString, Match: MatchDigits},
			{Name: "address", Type: TypeString, Match: MatchText},
			{Name: "balance", Type: TypeFloat, Match: MatchNumeric},
			{Name: "segment", Type: TypeString, Match: MatchExact},
		},
	}
}

// floatValue wraps a float cell (no shipped schema has a float column).
func floatValue(f float64) Value {
	return Value{Str: strconv.FormatFloat(f, 'g', -1, 64), Num: f, IsNum: true}
}

func newCustomerTable(t *testing.T) *Table {
	t.Helper()
	tab, err := NewTable(customerSchema())
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestSchemaValidate(t *testing.T) {
	bad := []Schema{
		{},
		{Table: "x"},
		{Table: "x", Columns: []Column{{Name: ""}}},
		{Table: "x", Columns: []Column{{Name: "a"}, {Name: "a"}}},
		{Table: "x", Columns: []Column{{Name: "a"}}, Key: "missing"},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("schema %d should fail validation", i)
		}
	}
	if err := customerSchema().Validate(); err != nil {
		t.Errorf("good schema rejected: %v", err)
	}
}

func TestInsertAndGet(t *testing.T) {
	tab := newCustomerTable(t)
	id, err := tab.Insert(
		StringValue("c1"), StringValue("john smith"), StringValue("9876543210"),
		StringValue("42 lake road"), floatValue(120.5), StringValue("gold"),
	)
	if err != nil {
		t.Fatal(err)
	}
	if tab.GetString(id, "name") != "john smith" {
		t.Error("name round-trip failed")
	}
	if v, _ := tab.Get(id, "balance"); v.Num != 120.5 {
		t.Error("numeric round-trip failed")
	}
	if _, ok := tab.Get(id, "nope"); ok {
		t.Error("missing column should fail")
	}
	if _, ok := tab.Get(RowID(99), "name"); ok {
		t.Error("missing row should fail")
	}
}

func TestInsertArityAndTypes(t *testing.T) {
	tab := newCustomerTable(t)
	if _, err := tab.Insert(StringValue("x")); err == nil {
		t.Error("wrong arity should fail")
	}
	if _, err := tab.Insert(
		StringValue("c1"), StringValue("n"), StringValue("p"),
		StringValue("a"), StringValue("not-a-number"), StringValue("s"),
	); err == nil {
		t.Error("string in float column should fail")
	}
}

func TestPrimaryKeyUnique(t *testing.T) {
	tab := newCustomerTable(t)
	row := func(id string) []Value {
		return []Value{StringValue(id), StringValue("a b"), StringValue("123"),
			StringValue("addr"), floatValue(1), StringValue("s")}
	}
	if _, err := tab.Insert(row("c1")...); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Insert(row("c1")...); err == nil {
		t.Error("duplicate key should fail")
	}
	if _, err := tab.Insert(row("c2")...); err != nil {
		t.Errorf("distinct key rejected: %v", err)
	}
	if tab.Len() != 2 || tab.GetString(0, "id") != "c1" || tab.GetString(1, "id") != "c2" {
		t.Error("the rejected duplicate left a row behind")
	}
}

func insertCustomer(t *testing.T, tab *Table, id, name, phone, addr string, bal float64, seg string) RowID {
	t.Helper()
	rid, err := tab.Insert(StringValue(id), StringValue(name), StringValue(phone),
		StringValue(addr), floatValue(bal), StringValue(seg))
	if err != nil {
		t.Fatal(err)
	}
	return rid
}

func TestNameIndexFuzzyRecall(t *testing.T) {
	tab := newCustomerTable(t)
	smith := insertCustomer(t, tab, "c1", "john smith", "111", "a", 1, "s")
	insertCustomer(t, tab, "c2", "mary wilkins", "222", "b", 1, "s")

	// A garbled-but-similar-sounding surname should still recall Smith.
	cands := tab.CandidatesAppend(nil, "name", "smyth")
	found := false
	for _, id := range cands {
		if id == smith {
			found = true
		}
	}
	if !found {
		t.Errorf("fuzzy name index missed smith: %v", cands)
	}
}

func TestDigitIndexPartialRecall(t *testing.T) {
	tab := newCustomerTable(t)
	target := insertCustomer(t, tab, "c1", "a", "9876543210", "x", 1, "s")
	insertCustomer(t, tab, "c2", "b", "1231231234", "y", 1, "s")
	// Only 6 of 10 digits recognized (contiguous run): most trigrams
	// survive.
	cands := tab.CandidatesAppend(nil, "phone", "987654")
	found := false
	for _, id := range cands {
		if id == target {
			found = true
		}
	}
	if !found {
		t.Errorf("digit index missed partial number: %v", cands)
	}
}

func TestTextIndexRecall(t *testing.T) {
	tab := newCustomerTable(t)
	target := insertCustomer(t, tab, "c1", "a", "1", "42 lake road", 1, "s")
	cands := tab.CandidatesAppend(nil, "address", "lake rode") // typo
	found := false
	for _, id := range cands {
		if id == target {
			found = true
		}
	}
	if !found {
		t.Errorf("text index missed: %v", cands)
	}
}

func TestCandidatesSortedUnique(t *testing.T) {
	tab := newCustomerTable(t)
	insertCustomer(t, tab, "c1", "anna anna", "1", "x", 1, "s")
	cands := tab.CandidatesAppend(nil, "name", "anna")
	for i := 1; i < len(cands); i++ {
		if cands[i] <= cands[i-1] {
			t.Errorf("candidates not sorted-unique: %v", cands)
		}
	}
	if got := tab.CandidatesAppend(nil, "ghost", "x"); got != nil {
		t.Errorf("missing column candidates = %v", got)
	}
}

func TestExactIndexProperty(t *testing.T) {
	tab := newCustomerTable(t)
	ids := map[string]RowID{}
	for _, seg := range []string{"gold", "silver", "bronze"} {
		ids[seg] = insertCustomer(t, tab, "c-"+seg, "n", "1", "x", 1, seg)
	}
	f := func(pick uint8) bool {
		segs := []string{"gold", "silver", "bronze"}
		seg := segs[int(pick)%3]
		cands := tab.CandidatesAppend(nil, "segment", seg)
		for _, id := range cands {
			if id == ids[seg] {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDBTables(t *testing.T) {
	db := NewDB()
	if _, err := db.CreateTable(customerSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(customerSchema()); err == nil {
		t.Error("duplicate table should fail")
	}
	if _, ok := db.Table("customers"); !ok {
		t.Error("table lookup failed")
	}
	if _, ok := db.Table("ghost"); ok {
		t.Error("missing table resolved")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustTable on missing table should panic")
		}
	}()
	db.MustTable("ghost")
}

func TestAggregate(t *testing.T) {
	tab := newCustomerTable(t)
	insertCustomer(t, tab, "c1", "a", "1", "x", 10, "gold")
	insertCustomer(t, tab, "c2", "b", "2", "x", 30, "gold")
	insertCustomer(t, tab, "c3", "c", "3", "y", 5, "silver")
	agg := tab.Aggregate("segment", "balance")
	gold := agg["gold"]
	if gold.Count != 2 || gold.Sum != 40 || gold.Min != 10 || gold.Max != 30 {
		t.Errorf("gold agg = %+v", gold)
	}
	if gold.Mean() != 20 {
		t.Errorf("gold mean = %v", gold.Mean())
	}
	if agg["silver"].Count != 1 || agg["silver"].Mean() != 5 {
		t.Errorf("silver agg = %+v", agg["silver"])
	}
	if len(tab.Aggregate("ghost", "balance")) != 0 {
		t.Error("missing group column should be empty")
	}
	if (AggStats{}).Mean() != 0 {
		t.Error("empty mean should be 0")
	}
}

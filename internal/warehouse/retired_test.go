package warehouse

// Nothing shipped reaches what this file declares (the root package's
// TestEveryInternalFunctionIsReachable). It left db.go and table.go
// in PR 24 and stays, as test code only, because the tests below pin it
// and a PR may retire only a few tests of the floor. It is a reference
// for nothing: delete each declaration with its tests.

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// Scan calls fn for every row until fn returns false.
func (t *Table) Scan(fn func(id RowID, get func(column string) Value) bool) {
	for i := range t.rows {
		id := RowID(i)
		get := func(column string) Value {
			v, _ := t.Get(id, column)
			return v
		}
		if !fn(id, get) {
			return
		}
	}
}

// Select returns the ids of rows where pred is true.
func (t *Table) Select(pred func(get func(column string) Value) bool) []RowID {
	var out []RowID
	t.Scan(func(id RowID, get func(string) Value) bool {
		if pred(get) {
			out = append(out, id)
		}
		return true
	})
	return out
}

// CountBy returns the number of rows per distinct value of column.
func (t *Table) CountBy(column string) map[string]int {
	out := make(map[string]int)
	ci := t.schema.col(column)
	if ci < 0 {
		return out
	}
	for _, r := range t.rows {
		out[r.vals[ci].Str]++
	}
	return out
}

// CrossTab counts rows for each (a, b) value pair of two columns — the
// structured half of the two-dimensional association analysis (§IV.D.2).
func (t *Table) CrossTab(colA, colB string) map[[2]string]int {
	out := make(map[[2]string]int)
	ca, cb := t.schema.col(colA), t.schema.col(colB)
	if ca < 0 || cb < 0 {
		return out
	}
	for _, r := range t.rows {
		out[[2]string{r.vals[ca].Str, r.vals[cb].Str}]++
	}
	return out
}

// Distinct returns the sorted distinct values of a column.
func (t *Table) Distinct(column string) []string {
	set := t.CountBy(column)
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// ImportCSV reads rows from CSV (with a header row matching the schema
// column order) into the table.
func (t *Table) ImportCSV(r io.Reader) error {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("warehouse: reading CSV header: %w", err)
	}
	if len(header) != len(t.schema.Columns) {
		return fmt.Errorf("warehouse: CSV has %d columns, schema has %d",
			len(header), len(t.schema.Columns))
	}
	for i, h := range header {
		if h != t.schema.Columns[i].Name {
			return fmt.Errorf("warehouse: CSV column %d is %q, want %q", i, h, t.schema.Columns[i].Name)
		}
	}
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("warehouse: reading CSV line %d: %w", line, err)
		}
		vals := make([]Value, len(rec))
		for i, s := range rec {
			switch t.schema.Columns[i].Type {
			case TypeInt:
				n, err := strconv.ParseInt(s, 10, 64)
				if err != nil {
					return fmt.Errorf("warehouse: line %d column %s: %w", line, t.schema.Columns[i].Name, err)
				}
				vals[i] = IntValue(n)
			case TypeFloat:
				f, err := strconv.ParseFloat(s, 64)
				if err != nil {
					return fmt.Errorf("warehouse: line %d column %s: %w", line, t.schema.Columns[i].Name, err)
				}
				vals[i] = floatValue(f)
			default:
				vals[i] = StringValue(s)
			}
		}
		if _, err := t.Insert(vals...); err != nil {
			return fmt.Errorf("warehouse: line %d: %w", line, err)
		}
	}
}

func TestScanAndSelect(t *testing.T) {
	tab := newCustomerTable(t)
	insertCustomer(t, tab, "c1", "john smith", "111", "a", 10, "gold")
	insertCustomer(t, tab, "c2", "mary jones", "222", "b", 20, "silver")
	insertCustomer(t, tab, "c3", "bob brown", "333", "c", 30, "gold")

	gold := tab.Select(func(get func(string) Value) bool {
		return get("segment").Str == "gold"
	})
	if len(gold) != 2 {
		t.Errorf("gold rows = %v", gold)
	}
	// Early-terminating scan.
	count := 0
	tab.Scan(func(id RowID, get func(string) Value) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("scan visited %d rows", count)
	}
}

func TestCountByAndCrossTab(t *testing.T) {
	tab := newCustomerTable(t)
	insertCustomer(t, tab, "c1", "a", "1", "x", 1, "gold")
	insertCustomer(t, tab, "c2", "b", "2", "x", 1, "gold")
	insertCustomer(t, tab, "c3", "c", "3", "y", 1, "silver")
	counts := tab.CountBy("segment")
	if counts["gold"] != 2 || counts["silver"] != 1 {
		t.Errorf("CountBy = %v", counts)
	}
	ct := tab.CrossTab("segment", "address")
	if ct[[2]string{"gold", "x"}] != 2 || ct[[2]string{"silver", "y"}] != 1 {
		t.Errorf("CrossTab = %v", ct)
	}
	if len(tab.CountBy("ghost")) != 0 {
		t.Error("missing column CountBy should be empty")
	}
}

func TestDistinct(t *testing.T) {
	tab := newCustomerTable(t)
	insertCustomer(t, tab, "c1", "a", "1", "x", 1, "gold")
	insertCustomer(t, tab, "c2", "b", "2", "y", 1, "gold")
	got := tab.Distinct("segment")
	if len(got) != 1 || got[0] != "gold" {
		t.Errorf("Distinct = %v", got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tab := newCustomerTable(t)
	insertCustomer(t, tab, "c1", "john, smith", "987", "a \"quoted\" addr", 10.25, "gold")
	insertCustomer(t, tab, "c2", "mary", "123", "plain", 20, "silver")

	var buf bytes.Buffer
	if err := tab.ExportCSV(&buf); err != nil {
		t.Fatal(err)
	}
	tab2, err := NewTable(customerSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := tab2.ImportCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if tab2.Len() != 2 {
		t.Fatalf("round-trip lost rows: %d", tab2.Len())
	}
	if tab2.GetString(0, "name") != "john, smith" {
		t.Error("comma in value not preserved")
	}
	if tab2.rows[0].vals[4].Num != 10.25 {
		t.Error("numeric not preserved")
	}
}

func TestImportCSVErrors(t *testing.T) {
	tab := newCustomerTable(t)
	cases := []string{
		"",               // no header
		"wrong,header\n", // wrong arity
		"id,name,phone,address,balance,wrongname\n",                  // wrong column name
		"id,name,phone,address,balance,segment\nc1,n,p,a,notnum,s\n", // bad float
	}
	for i, in := range cases {
		fresh, _ := NewTable(customerSchema())
		if err := fresh.ImportCSV(strings.NewReader(in)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	_ = tab
}

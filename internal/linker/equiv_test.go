package linker

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"bivoc/internal/warehouse"
)

// The equivalence contract of the linking hot path: the cached-feature
// similarity (featSim), the memoized TA merge, and the heap-based top-k
// must all be byte-identical to the naive recompute-everything oracle:
// the view Engine.Naive returns, which walks the same lists and scores
// with similarity().

// propSchema has one column per MatchKind so the property test exercises
// every similarity branch.
func propTable(t *testing.T) (*warehouse.DB, *warehouse.Table) {
	t.Helper()
	db := warehouse.NewDB()
	tab, err := db.CreateTable(warehouse.Schema{
		Table: "props",
		Columns: []warehouse.Column{
			{Name: "exact", Type: warehouse.TypeString, Match: warehouse.MatchExact},
			{Name: "name", Type: warehouse.TypeString, Match: warehouse.MatchName},
			{Name: "text", Type: warehouse.TypeString, Match: warehouse.MatchText},
			{Name: "digits", Type: warehouse.TypeString, Match: warehouse.MatchDigits},
			{Name: "amount", Type: warehouse.TypeString, Match: warehouse.MatchNumeric},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, tab
}

// randomSurface makes deliberately messy strings: mixed case, garbled
// words, digit runs, numbers, stray whitespace, empty strings.
func randomSurface(rng *rand.Rand) string {
	words := []string{
		"John", "smith", "GEOFFREY", "jeffrey", "lake", "Shore", "drive",
		"9876543210", "555", "0142", "12.50", "1200", "-3.75", "rs",
		"miller", "  ", "", "o'brien", "sánchez", "x",
	}
	n := rng.Intn(4)
	out := ""
	for i := 0; i <= n; i++ {
		if i > 0 {
			out += " "
		}
		out += words[rng.Intn(len(words))]
	}
	return out
}

// TestSimilarityFeatureEquivalence is the property test of the ISSUE's
// equivalence contract: for random tokens and stored values across all
// MatchKinds, the cached-feature similarity must equal the naive
// recomputation exactly (==, not within epsilon).
func TestSimilarityFeatureEquivalence(t *testing.T) {
	t.Parallel()
	_, tab := propTable(t)
	rng := rand.New(rand.NewSource(42))
	const rows = 40
	for r := 0; r < rows; r++ {
		tab.MustInsert(
			warehouse.StringValue(randomSurface(rng)),
			warehouse.StringValue(randomSurface(rng)),
			warehouse.StringValue(randomSurface(rng)),
			warehouse.StringValue(randomSurface(rng)),
			warehouse.StringValue(randomSurface(rng)),
		)
	}
	kinds := []struct {
		col  string
		kind warehouse.MatchKind
	}{
		{"exact", warehouse.MatchExact},
		{"name", warehouse.MatchName},
		{"text", warehouse.MatchText},
		{"digits", warehouse.MatchDigits},
		{"amount", warehouse.MatchNumeric},
	}
	for trial := 0; trial < 60; trial++ {
		token := randomSurface(rng)
		for _, kc := range kinds {
			feats := tab.Features(kc.col)
			ctx := &linkCtx{byText: map[string]*tokenFeats{}}
			ca := &ctxAttr{kind: kc.kind, col: kc.col, tab: tab, feats: feats}
			tf := &tokenFeats{text: token, lower: strings.ToLower(token)}
			for row := 0; row < rows; row++ {
				naive := similarity(kc.kind, token, tab.GetString(warehouse.RowID(row), kc.col))
				cached := ctx.featSim(tf, ca, warehouse.RowID(row))
				if naive != cached {
					t.Fatalf("kind=%v token=%q row=%d: naive=%v cached=%v",
						kc.kind, token, row, naive, cached)
				}
			}
		}
	}
}

// TestLinkNaiveOracleEquivalence compares every public link entry point
// against the naive oracle on the shared fixture.
func TestLinkNaiveOracleEquivalence(t *testing.T) {
	t.Parallel()
	e := testEngine(t, testDB(t))
	naive := e.Naive()
	docs := [][]Token{
		{{Text: "jon", Type: TokName}, {Text: "smth", Type: TokName}, {Text: "987654", Type: TokDigits}},
		{{Text: "mary", Type: TokName}, {Text: "150", Type: TokAmount}},
		{{Text: "4111222233334444", Type: TokDigits}},
		{{Text: "robert", Type: TokName}, {Text: "robert", Type: TokName}}, // duplicate tokens share memo
		{{Text: "zzzz", Type: TokName}},                                    // no candidates anywhere
		{},
	}
	check := func(di, k int, doc []Token) {
		t.Helper()
		if got, want := e.Link(doc, k), naive.Link(doc, k); !reflect.DeepEqual(got, want) {
			t.Errorf("doc %d k=%d Link: got %v want %v", di, k, got, want)
		}
		if got, want := e.LinkFullScan(doc, k), naive.LinkFullScan(doc, k); !reflect.DeepEqual(got, want) {
			t.Errorf("doc %d k=%d LinkFullScan: got %v want %v", di, k, got, want)
		}
		if got, want := e.LinkTable(doc, "customers", k), naive.LinkTable(doc, "customers", k); !reflect.DeepEqual(got, want) {
			t.Errorf("doc %d k=%d LinkTable: got %v want %v", di, k, got, want)
		}
	}
	for di, doc := range docs {
		for _, k := range []int{1, 2, 3} {
			check(di, k, doc)
		}
	}
	// The view shares the weight map: weights set or learned through
	// either engine move both, so the comparison holds after it too.
	at := Attribute{Table: "customers", Column: "name"}
	e.SetWeight(at, 0.9)
	if naive.weights[at] != 0.9 {
		t.Fatalf("SetWeight on the engine did not reach its naive view: %v", naive.weights[at])
	}
	naive.LearnWeights(docs, 2)
	if !reflect.DeepEqual(e.weights, naive.weights) {
		t.Fatalf("LearnWeights on the naive view did not move the engine:\n%v\n%v", e.weights, naive.weights)
	}
	for di, doc := range docs {
		check(di, 2, doc)
	}
}

// TestLinkIndividualBestPinned pins the shared-lists rewrite of
// LinkIndividualBest against a reference implementation of the original
// algorithm (one LinkTable call per token).
func TestLinkIndividualBestPinned(t *testing.T) {
	t.Parallel()
	e := testEngine(t, testDB(t))
	reference := func(tokens []Token, table string) (Match, bool) {
		votes := map[warehouse.RowID]int{}
		for _, tok := range tokens {
			m := e.LinkTable([]Token{tok}, table, 1)
			if len(m) == 1 {
				votes[m[0].Row]++
			}
		}
		bestRow, bestVotes := warehouse.RowID(-1), 0
		for row, v := range votes {
			if v > bestVotes || (v == bestVotes && row < bestRow) {
				bestRow, bestVotes = row, v
			}
		}
		if bestVotes == 0 {
			return Match{}, false
		}
		return Match{Table: table, Row: bestRow, Score: float64(bestVotes)}, true
	}
	docs := [][]Token{
		{{Text: "jon", Type: TokName}, {Text: "smith", Type: TokName}, {Text: "9876543210", Type: TokDigits}},
		{{Text: "mary", Type: TokName}, {Text: "jones", Type: TokName}},
		{{Text: "susan", Type: TokName}, {Text: "9000011111", Type: TokDigits}, {Text: "wilson", Type: TokName}},
		{{Text: "zzzz", Type: TokName}},
		{},
	}
	for di, doc := range docs {
		wantM, wantOK := reference(doc, "customers")
		gotM, gotOK := e.LinkIndividualBest(doc, "customers")
		if gotOK != wantOK || gotM != wantM {
			t.Errorf("doc %d: got (%v,%v) want (%v,%v)", di, gotM, gotOK, wantM, wantOK)
		}
	}
}

// TestTopKMatchesSortTruncate cross-checks the bounded heap against the
// sort-and-truncate baseline on random match streams.
func TestTopKMatchesSortTruncate(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(5)
		n := rng.Intn(30)
		heap := topK{k: k}
		var all []Match
		for i := 0; i < n; i++ {
			// Duplicate scores are common (quantized similarity sums); rows
			// are unique as in the merge (seen-set dedup).
			m := Match{Table: "t", Row: warehouse.RowID(i), Score: float64(rng.Intn(6)) / 3}
			heap.push(m)
			all = append(all, m)
		}
		want := append([]Match(nil), all...)
		sortMatchesDesc(want)
		if len(want) > k {
			want = want[:k]
		}
		got := heap.sorted()
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d k=%d: heap %v want %v", trial, k, got, want)
		}
	}
}

func sortMatchesDesc(ms []Match) {
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && outranks(ms[j], ms[j-1]); j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
}

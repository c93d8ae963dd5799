package mining_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"bivoc/internal/annotate"
	"bivoc/internal/mining"
	"bivoc/internal/voctest"
)

// snapshotPostings deep-copies every inverted list in the index so a
// test can later prove no query wrote through them.
func snapshotPostings(ix *mining.Index) map[string][]int {
	snap := map[string][]int{}
	b := ix.Backing()
	b.EachConcept(func(cat, canon string, _ int) {
		snap["concept/"+cat+"/"+canon] = append([]int(nil), b.ConceptPostings(cat, canon)...)
	})
	b.EachCategory(func(cat string, _ int) {
		snap["cat/"+cat] = append([]int(nil), b.CategoryPostings(cat)...)
	})
	b.EachField(func(field, value string, _ int) {
		snap["field/"+field+"/"+value] = append([]int(nil), b.FieldPostings(field, value)...)
	})
	return snap
}

// runQueryBattery drives every analytics entry point, including repeat
// calls that hit the prepared caches, and mutates every slice a query
// returns — if any of them aliases index internals, the comparison
// against the pre-battery snapshot will catch it.
func runQueryBattery(ix *mining.Index, w *voctest.World) {
	for range [2]int{} { // twice: cache-miss then cache-hit paths
		for _, d := range w.Dims {
			ix.Count(d)
			pts := ix.Trend(d)
			for j := range pts {
				pts[j].Count = -1
			}
		}
		for _, p := range w.Pairs {
			ix.CountBoth(p[0], p[1])
			docs := ix.DrillDown(p[0], p[1])
			for j := range docs {
				docs[j].ID = "clobbered"
			}
		}
		for _, cat := range w.Cats {
			names := ix.ConceptsInCategory(cat)
			for j := range names {
				names[j] = "clobbered"
			}
			rel := ix.RelativeFrequency(cat, w.Dims[11])
			for j := range rel {
				rel[j].Concept = "clobbered"
			}
			df := ix.ConceptDF(cat)
			for j := range df {
				df[j].Concept = "clobbered"
			}
		}
		for _, f := range w.Fields {
			vals := ix.FieldValues(f)
			for j := range vals {
				vals[j] = "clobbered"
			}
		}
		for _, tc := range w.Tables {
			tbl := ix.AssociateN(tc.Rows, tc.Cols, 0.95, 0)
			for i := range tbl.Cells {
				for j := range tbl.Cells[i] {
					tbl.Cells[i][j].N = -1
				}
			}
		}
	}
}

// TestQueriesNeverMutatePostings enforces the postings contract on Index:
// internal inverted lists (and the prepared caches built over them) are
// read-only views, so a sealed index can serve concurrent handlers
// without locks. The fast path accumulates into scratch buffers instead
// of writing through resolved postings; this test fails if any query
// mutates an inverted list or hands a caller a slice that aliases one.
func TestQueriesNeverMutatePostings(t *testing.T) {
	t.Parallel()
	w := voctest.NewWorld(42, 120)
	ix := w.Index()
	before := snapshotPostings(ix)
	runQueryBattery(ix, w)
	after := snapshotPostings(ix)
	if !reflect.DeepEqual(before, after) {
		for k, b := range before {
			if !reflect.DeepEqual(b, after[k]) {
				t.Errorf("postings %q mutated by queries:\n before %v\n after  %v", k, b, after[k])
			}
		}
		t.Fatal("query battery mutated index postings")
	}
	// Results must still match the oracle after the battery mutated
	// every returned slice — i.e. callers got copies, not cache views.
	voctest.CheckQueriers(t, ix, oracle(w), w)
}

// TestColumnsBuiltOnce releases sixteen goroutines at once onto a fresh
// sealed segment, each with its first queries: a table over two field
// columns, a relative frequency featuring a third field value, and a
// trend. Each per-document column those need (outcome, agent, time) must
// be built exactly once, and every answer must be the oracle's. Run under
// -race, this is also the check that a column is published safely to the
// queries that did not build it.
func TestColumnsBuiltOnce(t *testing.T) {
	t.Parallel()
	w := voctest.NewWorld(2026, 150)
	ix, naive := mining.Seal(w.DocsByID()), oracle(w)
	rows := []mining.Dim{mining.ConceptDim("issue", "billing"), mining.CategoryDim("brand")}
	cols := []mining.Dim{mining.FieldDim("outcome", "reservation"), mining.FieldDim("agent", "A2")}
	featured := mining.FieldDim("outcome", "callback")
	trend := mining.ConceptDim("issue", "outage")
	wantAssoc, wantRel, wantTrend := naive.AssocMarginals(rows, cols), naive.RelFreqMarginals("brand", featured), naive.Trend(trend)

	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if got := ix.AssocMarginals(rows, cols); !reflect.DeepEqual(got, wantAssoc) {
				t.Errorf("AssocMarginals = %+v, oracle %+v", got, wantAssoc)
			}
			if got := ix.RelFreqMarginals("brand", featured); !reflect.DeepEqual(got, wantRel) {
				t.Errorf("RelFreqMarginals = %+v, oracle %+v", got, wantRel)
			}
			if got := ix.Trend(trend); !reflect.DeepEqual(got, wantTrend) {
				t.Errorf("Trend = %+v, oracle %+v", got, wantTrend)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := ix.ColumnsBuilt(); n != 3 {
		t.Fatalf("16 racing first queries built %d columns, want 3 (outcome, agent, time) once each", n)
	}
}

// TestColumnsPastTheirWidth seals a segment with more distinct times, and
// a field with more distinct values, than a column id can name. Those two
// get no column — the trend hashes times, the field is marked like a
// concept — while a narrow field beside them still gets its column, and
// every answer is the oracle's.
func TestColumnsPastTheirWidth(t *testing.T) {
	t.Parallel()
	const n = 1<<16 + 1
	docs := make([]mining.Document, n)
	for i := range docs {
		docs[i] = mining.Document{
			ID:     fmt.Sprintf("doc-%06d", i),
			Fields: map[string]string{"serial": fmt.Sprint(i), "outcome": []string{"won", "lost", "open"}[i%3]},
			Time:   i - 7,
		}
		if i%5 != 0 {
			docs[i].Concepts = []annotate.Concept{{Category: "issue", Canonical: []string{"billing", "outage"}[i%2]}}
		}
	}
	naive := voctest.Index(docs).Naive()
	ix := mining.Seal(docs)
	rows := []mining.Dim{mining.ConceptDim("issue", "billing"), mining.CategoryDim("issue")}
	cols := []mining.Dim{mining.FieldDim("serial", "12"), mining.FieldDim("outcome", "lost"), mining.FieldDim("serial", "65536")}
	if got, want := ix.AssocMarginals(rows, cols), naive.AssocMarginals(rows, cols); !reflect.DeepEqual(got, want) {
		t.Errorf("AssocMarginals = %+v, oracle %+v", got, want)
	}
	for _, featured := range []mining.Dim{cols[0], cols[1]} {
		if got, want := ix.RelFreqMarginals("issue", featured), naive.RelFreqMarginals("issue", featured); !reflect.DeepEqual(got, want) {
			t.Errorf("RelFreqMarginals(%s) = %+v, oracle %+v", featured.Label(), got, want)
		}
	}
	if got, want := ix.Trend(rows[0]), naive.Trend(rows[0]); !reflect.DeepEqual(got, want) {
		t.Errorf("Trend diverges from the oracle: %d points, want %d", len(got), len(want))
	}
	if built := ix.ColumnsBuilt(); built != 2 {
		t.Errorf("%d column builds, want 2: outcome's, and the time column's, which found too many times", built)
	}
}

// TestPreparedTrendAllocs pins the trend kernel of a sealed segment: once
// its time column is built and the query scratch pooled, a trend of a
// leaf dimension allocates its result and nothing else.
func TestPreparedTrendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race; the count would be the pool's")
	}
	w := voctest.NewWorld(2027, 300)
	ix := mining.Seal(w.DocsByID())
	for _, d := range []mining.Dim{mining.ConceptDim("issue", "billing"), mining.CategoryDim("brand"), mining.FieldDim("agent", "A3")} {
		if len(ix.Trend(d)) == 0 { // warm: builds the column, fills the pool
			t.Fatalf("%s has no documents in this world", d.Label())
		}
		if got := testing.AllocsPerRun(100, func() { ix.Trend(d) }); got != 1 {
			t.Errorf("Trend(%s) allocates %.1f objects per call, want 1 (its result)", d.Label(), got)
		}
	}
}

// TestPreparedDrillDownLimitAllocs pins the limited drill-down of a sealed
// segment: once its columns are built, its conjunctions memoized and the
// query scratch pooled, it takes its first documents in position order —
// by a field column without building the cell, or from an intersection
// into pooled scratch — so that it allocates its result and nothing
// else, for every shape of the world's drill-down battery with leaf
// operands. (A conjunction operand pays for its memo key,
// Dim.CanonicalLabel, wherever it is resolved.)
func TestPreparedDrillDownLimitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race; the count would be the pool's")
	}
	w := voctest.NewWorld(2027, 300)
	ix := mining.Seal(w.DocsByID())
	for _, c := range w.Cells {
		if len(c[0].And) > 0 || len(c[1].And) > 0 {
			continue
		}
		docs, count := ix.DrillDownLimit(c[0], c[1], 3) // warm
		want := 0.0
		if len(docs) > 0 {
			want = 1
		}
		if got := testing.AllocsPerRun(100, func() { ix.DrillDownLimit(c[0], c[1], 3) }); got != want {
			t.Errorf("DrillDownLimit(%s, %s, 3) of a cell of %d allocates %.1f objects per call, want %.0f (its result)",
				c[0].Label(), c[1].Label(), count, got, want)
		}
	}
}

// TestConjunctionMemoStability pins that the memoized conjunction cache
// returns stable answers: the same canonical key served twice (including
// via differently-ordered but equivalent Dim trees) yields identical
// results, and the cached postings are not scratch that later queries
// recycle.
func TestConjunctionMemoStability(t *testing.T) {
	t.Parallel()
	w := voctest.NewWorld(99, 150)
	ix := w.Index()
	a := mining.AndDim(mining.ConceptDim("issue", "billing"), mining.FieldDim("outcome", "reservation"))
	b := mining.AndDim(mining.FieldDim("outcome", "reservation"), mining.ConceptDim("issue", "billing"))
	if a.CanonicalLabel() != b.CanonicalLabel() {
		t.Fatalf("reordered conjunctions canonicalize differently: %q vs %q",
			a.CanonicalLabel(), b.CanonicalLabel())
	}
	first := ix.Count(a)
	// Churn the scratch pools with unrelated queries.
	runQueryBattery(ix, w)
	if got := ix.Count(b); got != first {
		t.Fatalf("memoized conjunction unstable: first Count=%d, after churn Count=%d", first, got)
	}
	if naive := oracle(w).Count(a); first != naive || first == 0 {
		t.Fatalf("memoized conjunction Count=%d, naive %d (and neither may be 0)", first, naive)
	}
}

// TestConjunctionMemoBounded offers a prepared index ten times its memo
// budget in distinct conjunctions — pairs and triples of real leaves,
// then as many more tagged with a leaf nobody carries as it takes. The
// memo must stop at its budget with its accounting exact, and every
// answer, memoized or recomputed past the budget, must still equal the
// naive oracle's.
func TestConjunctionMemoBounded(t *testing.T) {
	t.Parallel()
	w := voctest.NewWorld(17, 150)
	ix, naive := w.Index(), oracle(w)
	_, _, limit := ix.ConjMemo()
	if limit != mining.ConjBudget(ix.Len()) || limit < mining.ConjWordsFloor {
		t.Fatalf("memo limit %d, want conjBudget(%d) = %d", limit, ix.Len(), mining.ConjBudget(ix.Len()))
	}

	var leaves []mining.Dim
	for _, d := range w.Dims {
		if len(d.And) == 0 {
			leaves = append(leaves, d)
		}
	}
	var conjs []mining.Dim
	for i, a := range leaves {
		for j := i + 1; j < len(leaves); j++ {
			conjs = append(conjs, mining.AndDim(a, leaves[j]))
			for k := j + 1; k < len(leaves); k++ {
				conjs = append(conjs, mining.AndDim(a, leaves[j], leaves[k]))
			}
		}
	}
	offered := 0
	for _, d := range conjs {
		offered += mining.ConjCost(d.CanonicalLabel(), naive.Count(d))
	}
	for n := 0; offered < 10*limit; n++ {
		d := mining.AndDim(leaves[n%len(leaves)], mining.FieldDim("tag", fmt.Sprint(n)))
		conjs = append(conjs, d)
		offered += mining.ConjCost(d.CanonicalLabel(), 0)
	}

	partner := mining.CategoryDim("issue")
	want := make([][2]int, len(conjs))
	for i, d := range conjs {
		want[i] = [2]int{naive.Count(d), naive.CountBoth(d, partner)}
	}
	for pass := 0; pass < 2; pass++ { // the second pass hits what the first stored
		for i, d := range conjs {
			if got := [2]int{ix.Count(d), ix.CountBoth(d, partner)}; got != want[i] {
				t.Fatalf("pass %d: %s: Count, CountBoth = %v, naive %v", pass, d.Label(), got, want[i])
			}
			if _, words, _ := ix.ConjMemo(); words > limit {
				t.Fatalf("pass %d: memo holds %d words after %s, budget %d", pass, words, d.Label(), limit)
			}
		}
	}
	entries, words, _ := ix.ConjMemo()
	if held := ix.ConjMemoHeld(); held != words {
		t.Fatalf("memo accounts for %d words, its entries cost %d", words, held)
	}
	if entries == 0 || entries >= len(conjs) || words < limit*9/10 {
		t.Fatalf("memo holds %d of %d conjunctions in %d of %d words — the bound was never reached",
			entries, len(conjs), words, limit)
	}
}

// leaves reports whether no dimension of dims is a conjunction.
func leaves(dims []mining.Dim) bool {
	for _, d := range dims {
		if len(d.And) > 0 {
			return false
		}
	}
	return true
}

// TestPreparedAssocAllocs pins the association kernel of a sealed
// segment: once its columns are built, its rows tallied and the query
// scratch pooled, a table of leaf rows and columns allocates its result —
// the row counts, the column counts, the cell rows and the cells — and
// nothing else, whether its columns are read off tallies, marked, or (65
// of them) merged per cell.
func TestPreparedAssocAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race; the count would be the pool's")
	}
	w := voctest.NewWorld(2027, 300)
	ix := mining.Seal(w.DocsByID())
	var leafDims []mining.Dim
	for _, d := range w.Dims {
		if len(d.And) == 0 {
			leafDims = append(leafDims, d)
		}
	}
	wide := make([]mining.Dim, voctest.Wide)
	for j := range wide {
		wide[j] = leafDims[j%len(leafDims)]
	}
	tables := []voctest.Table{
		{Name: "concept rows × agent columns", Rows: leafDims[:5], Cols: []mining.Dim{
			mining.FieldDim("agent", "A1"), mining.FieldDim("agent", "A2"), mining.FieldDim("agent", "A3"), mining.FieldDim("outcome", "callback")}},
		{Name: "a category and a field as rows", Rows: []mining.Dim{mining.CategoryDim("issue"), mining.FieldDim("agent", "A2")},
			Cols: []mining.Dim{mining.FieldDim("outcome", "reservation"), mining.ConceptDim("brand", "acme")}},
		{Name: "65 columns", Rows: leafDims[:3], Cols: wide},
	}
	for _, tc := range w.Tables {
		if len(tc.Rows) > 0 && leaves(tc.Rows) && leaves(tc.Cols) {
			tables = append(tables, tc)
		}
	}
	for _, tc := range tables {
		ix.AssocMarginals(tc.Rows, tc.Cols) // warm
		if got := testing.AllocsPerRun(100, func() { ix.AssocMarginals(tc.Rows, tc.Cols) }); got != 4 {
			t.Errorf("AssocMarginals(%s) allocates %.1f objects per call, want 4 (its result)", tc.Name, got)
		}
	}
}

// TestPreparedRelFreqAllocs pins the relative-frequency kernel of a
// sealed segment: once warm, a relative frequency featuring a leaf —
// a plain field read off the concepts' tallies, or any other subset
// marked — allocates its result, the concepts' marginals, and nothing
// else.
func TestPreparedRelFreqAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race; the count would be the pool's")
	}
	w := voctest.NewWorld(2027, 300)
	ix := mining.Seal(w.DocsByID())
	for _, cat := range w.Cats {
		want := 0.0
		if len(ix.ConceptDF(cat)) > 0 {
			want = 1
		}
		for _, d := range w.Dims {
			if len(d.And) > 0 {
				continue
			}
			ix.RelFreqMarginals(cat, d) // warm
			if got := testing.AllocsPerRun(100, func() { ix.RelFreqMarginals(cat, d) }); got != want {
				t.Errorf("RelFreqMarginals(%q, %s) allocates %.1f objects per call, want %.0f (its result)", cat, d.Label(), got, want)
			}
		}
	}
}

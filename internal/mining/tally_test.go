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

// The tally suites: a sealed segment answers a plain field column of an
// association table, a relative frequency featuring a plain field and a
// drill-down's count with a field side from its rows' memoized tallies.
// Every answer must be the walk's — the naive oracle's — whether the
// tally is built, looked up, built for one call past the memo's budget,
// or never built at all.

// tallyRows and tallyCols are the shapes the world's battery leaves to
// chance: a row over its own field (outcome=reservation × outcome),
// category rows, and field columns of two fields side by side.
var (
	tallyRows = []mining.Dim{
		mining.FieldDim("outcome", "reservation"),
		mining.CategoryDim("issue"),
		mining.CategoryDim("brand"),
		mining.ConceptDim("issue", "billing"),
		mining.FieldDim("agent", "A2"),
	}
	tallyCols = []mining.Dim{
		mining.FieldDim("outcome", "reservation"),
		mining.FieldDim("outcome", "callback"),
		mining.FieldDim("agent", "A2"),
		mining.FieldDim("outcome", `walk\away`),
		mining.FieldDim("agent", "A1"),
	}
)

// checkTallyShapes holds got to want on every table cell, drill-down and
// relative frequency over tallyRows × tallyCols, reporting the first
// divergence through Errorf: it runs on goroutines of its own too.
func checkTallyShapes(t *testing.T, got, want mining.Querier) {
	t.Helper()
	if g, w := got.AssocMarginals(tallyRows, tallyCols), want.AssocMarginals(tallyRows, tallyCols); !reflect.DeepEqual(g, w) {
		t.Errorf("AssocMarginals = %+v, oracle %+v", g, w)
	}
	for _, col := range tallyCols {
		for _, cat := range []string{"issue", "brand", "sentiment"} {
			if g, w := got.RelFreqMarginals(cat, col), want.RelFreqMarginals(cat, col); !reflect.DeepEqual(g, w) {
				t.Errorf("RelFreqMarginals(%q, %s) = %+v, oracle %+v", cat, col.Label(), g, w)
				return
			}
		}
		for _, row := range tallyRows {
			for _, limit := range []int{0, 1, 5, -1} {
				gDocs, g := got.DrillDownLimit(row, col, limit)
				wDocs, w := want.DrillDownLimit(row, col, limit)
				if g != w || !reflect.DeepEqual(ids(gDocs), ids(wDocs)) {
					t.Errorf("DrillDownLimit(%s, %s, %d) = %d %v, oracle %d %v", row.Label(), col.Label(), limit, g, ids(gDocs), w, ids(wDocs))
					return
				}
			}
		}
	}
}

func ids(docs []mining.Document) []string {
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = d.ID
	}
	return out
}

// checkMemo fails unless an index's memo accounts for exactly what it
// holds and holds no more than its budget.
func checkMemo(t *testing.T, ix *mining.Index) {
	t.Helper()
	_, words, limit := ix.ConjMemo()
	if held := ix.ConjMemoHeld(); held != words {
		t.Fatalf("memo accounts for %d words, its entries cost %d", words, held)
	}
	if words > limit {
		t.Fatalf("memo holds %d words, budget %d", words, limit)
	}
}

// TestTalliesAgreeWithWalks compares segment sets of 1, 2 and 8 segments
// with the naive oracle, cold and then warm, over the world's battery and
// the tally shapes: once with each segment's memo budget at 0, so that
// every tally is built for one call and none is kept, and once at the
// default budget, so that the warm pass reads kept tallies.
func TestTalliesAgreeWithWalks(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{3801, 3802} {
		w := voctest.NewWorld(seed, 160)
		naive := oracle(w)
		for _, nsegs := range []int{1, 2, 8} {
			for _, keep := range []bool{false, true} {
				t.Run(fmt.Sprintf("seed-%d/%d-segments/keep-%v", seed, nsegs, keep), func(t *testing.T) {
					t.Parallel()
					segs := w.Segments(nsegs)
					if !keep {
						for _, s := range segs {
							s.SetMemoLimit(0)
						}
					}
					set := mining.NewSegmentSet(segs...)
					for range 2 { // cold, then warm
						voctest.CheckQueriers(t, set, naive, w)
						checkTallyShapes(t, set, naive)
					}
					tallies := 0
					for _, s := range segs {
						checkMemo(t, s)
						tallies += s.Tallies()
					}
					switch {
					case !keep && tallies != 0:
						t.Fatalf("%d tallies kept at a budget of 0", tallies)
					case keep && tallies == 0:
						t.Fatal("no segment kept a tally at the default budget")
					}
					if keep && nsegs == 1 {
						for _, k := range []struct {
							row   mining.Dim
							field string
						}{{tallyRows[0], "outcome"}, {tallyRows[1], "agent"}, {tallyRows[3], "outcome"}} {
							if !segs[0].HasTally(k.row, k.field) {
								t.Errorf("no tally of %s over %s kept", k.row.Label(), k.field)
							}
						}
					}
				})
			}
		}
	}
}

// TestTallyOnlyForRowsAsLargeAsTheField seals a segment with a field of a
// value per document beside one of three values: a row gets a tally over
// a field only when it has at least as many documents as the field has
// values plus one, and the rows that walk answer as the oracle does.
func TestTallyOnlyForRowsAsLargeAsTheField(t *testing.T) {
	t.Parallel()
	docs := make([]mining.Document, 100)
	for i := range docs {
		docs[i] = mining.Document{
			ID:     fmt.Sprintf("doc-%03d", i),
			Fields: map[string]string{"serial": fmt.Sprint(i), "outcome": []string{"won", "lost", "open"}[i%3]},
		}
		if i%2 == 0 {
			docs[i].Concepts = append(docs[i].Concepts, annotate.Concept{Category: "issue", Canonical: "common"})
		}
		if i == 4 || i == 50 {
			docs[i].Concepts = append(docs[i].Concepts, annotate.Concept{Category: "issue", Canonical: "rare"})
		}
	}
	ix, naive := mining.Seal(docs), voctest.Index(docs).Naive()
	rare, common, issue := mining.ConceptDim("issue", "rare"), mining.ConceptDim("issue", "common"), mining.CategoryDim("issue")
	rows := []mining.Dim{rare, common, issue}
	cols := []mining.Dim{mining.FieldDim("serial", "4"), mining.FieldDim("serial", "50"), mining.FieldDim("outcome", "won"), mining.FieldDim("outcome", "lost")}
	for range 2 {
		if got, want := ix.AssocMarginals(rows, cols), naive.AssocMarginals(rows, cols); !reflect.DeepEqual(got, want) {
			t.Fatalf("AssocMarginals = %+v, oracle %+v", got, want)
		}
		for _, col := range cols {
			if got, want := ix.RelFreqMarginals("issue", col), naive.RelFreqMarginals("issue", col); !reflect.DeepEqual(got, want) {
				t.Fatalf("RelFreqMarginals(%s) = %+v, oracle %+v", col.Label(), got, want)
			}
			for _, row := range rows {
				gotDocs, got := ix.DrillDownLimit(row, col, 3)
				wantDocs, want := naive.DrillDownLimit(row, col, 3)
				if got != want || !reflect.DeepEqual(ids(gotDocs), ids(wantDocs)) {
					t.Fatalf("DrillDownLimit(%s, %s, 3) = %d %v, oracle %d %v", row.Label(), col.Label(), got, ids(gotDocs), want, ids(wantDocs))
				}
			}
		}
	}
	for _, c := range []struct {
		row   mining.Dim
		field string
		kept  bool
	}{
		{rare, "serial", false},   // 2 documents, 100 values
		{common, "serial", false}, // 50 documents, 100 values
		{issue, "serial", false},
		{rare, "outcome", false}, // 2 documents, 3 values
		{common, "outcome", true},
		{issue, "outcome", true},
	} {
		if got := ix.HasTally(c.row, c.field); got != c.kept {
			t.Errorf("tally of %s over %s kept: %v, want %v", c.row.Label(), c.field, got, c.kept)
		}
	}
	checkMemo(t, ix)
}

// TestTalliesStoredOnceUnderRace releases sixteen goroutines at once onto
// a cold segment, each with the tally shapes' first queries, at the
// default budget and at one that holds a few tallies. Every answer must
// be the oracle's; the memo must account for exactly what it holds, hold
// no more than its budget, and, at the default budget, hold the tallies a
// single caller leaves behind — one per key, whoever built it. Run under
// -race, this is also the check that a tally is published safely to the
// queries that did not build it.
func TestTalliesStoredOnceUnderRace(t *testing.T) {
	t.Parallel()
	w := voctest.NewWorld(2028, 200)
	naive := oracle(w)
	alone := mining.Seal(w.DocsByID())
	checkTallyShapes(t, alone, naive)
	for _, tight := range []bool{false, true} {
		ix := mining.Seal(w.DocsByID())
		limit := mining.ConjBudget(ix.Len())
		if tight {
			limit = 3 * mining.TallyCost(tallyRows[1], "agent", 4)
			ix.SetMemoLimit(limit)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for range 16 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				checkTallyShapes(t, ix, naive)
			}()
		}
		close(start)
		wg.Wait()
		checkMemo(t, ix)
		if !tight && ix.Tallies() != alone.Tallies() {
			t.Fatalf("16 racing callers kept %d tallies, one caller %d", ix.Tallies(), alone.Tallies())
		}
		if tight && (ix.Tallies() == 0 || ix.Tallies() >= alone.Tallies()) {
			t.Fatalf("a budget of %d words kept %d tallies of %d: it was never reached", limit, ix.Tallies(), alone.Tallies())
		}
	}
}

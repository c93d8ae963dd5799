package mining

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// snapshotPostings deep-copies every inverted list in the index so a
// test can later prove no query wrote through them.
func snapshotPostings(ix *Index) map[string][]int {
	snap := map[string][]int{}
	ix.b.EachConcept(func(cat, canon string, _ int) {
		snap["concept/"+cat+"/"+canon] = append([]int(nil), ix.b.ConceptPostings(cat, canon)...)
	})
	ix.b.EachCategory(func(cat string, _ int) {
		snap["cat/"+cat] = append([]int(nil), ix.b.CategoryPostings(cat)...)
	})
	ix.b.EachField(func(f, v string, _ int) {
		snap["field/"+f+"/"+v] = append([]int(nil), ix.b.FieldPostings(f, v)...)
	})
	return snap
}

// allDocs returns the index's documents in position order — the test
// helper replacement for reaching into the backing's document slice.
func allDocs(ix *Index) []Document {
	docs := make([]Document, ix.Len())
	for i := range docs {
		docs[i] = ix.Doc(i)
	}
	return docs
}

// runQueryBattery drives every analytics entry point, including repeat
// calls that hit the prepared caches, and mutates every slice a query
// returns — if any of them aliases index internals, the comparison
// against the pre-battery snapshot will catch it.
func runQueryBattery(ix *Index, w *equivWorld) {
	for range [2]int{} { // twice: cache-miss then cache-hit paths
		for _, d := range w.dims {
			ix.Count(d)
			for _, pt := range ix.Trend(d) {
				_ = pt
			}
		}
		for i, a := range w.dims {
			b := w.dims[(i+5)%len(w.dims)]
			ix.CountBoth(a, b)
			docs := ix.DrillDown(a, b)
			for j := range docs {
				docs[j].ID = "clobbered"
			}
		}
		for _, cat := range w.cats {
			names := ix.ConceptsInCategory(cat)
			for j := range names {
				names[j] = "clobbered"
			}
			rel := ix.RelativeFrequency(cat, w.dims[11])
			for j := range rel {
				rel[j].Concept = "clobbered"
			}
		}
		for _, f := range w.fields {
			vals := ix.FieldValues(f)
			for j := range vals {
				vals[j] = "clobbered"
			}
		}
		tbl := ix.AssociateN(w.dims[:4], w.dims[8:11], 0.95, 0)
		for i := range tbl.Cells {
			for j := range tbl.Cells[i] {
				tbl.Cells[i][j].N = -1
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
	for _, prepare := range []bool{false, true} {
		w := newEquivWorld(rand.New(rand.NewSource(42)), 120)
		if prepare {
			w.ix.Prepare()
		}
		before := snapshotPostings(w.ix)
		runQueryBattery(w.ix, w)
		after := snapshotPostings(w.ix)
		if !reflect.DeepEqual(before, after) {
			for k, b := range before {
				if !reflect.DeepEqual(b, after[k]) {
					t.Errorf("prepare=%v: postings %q mutated by queries:\n before %v\n after  %v",
						prepare, k, b, after[k])
				}
			}
			t.Fatalf("prepare=%v: query battery mutated index postings", prepare)
		}
		// Results must still match the oracle after the battery mutated
		// every returned slice — i.e. callers got copies, not cache views.
		checkEquiv(t, w)
	}
}

// TestConjunctionMemoStability pins that the memoized conjunction cache
// returns stable answers: the same canonical key served twice (including
// via differently-ordered but equivalent Dim trees) yields identical
// results, and the cached postings are not scratch that later queries
// recycle.
func TestConjunctionMemoStability(t *testing.T) {
	w := newEquivWorld(rand.New(rand.NewSource(99)), 150)
	w.ix.Prepare()
	a := AndDim(ConceptDim("issue", "billing"), FieldDim("outcome", "reservation"))
	b := AndDim(FieldDim("outcome", "reservation"), ConceptDim("issue", "billing"))
	if a.CanonicalLabel() != b.CanonicalLabel() {
		t.Fatalf("reordered conjunctions canonicalize differently: %q vs %q",
			a.CanonicalLabel(), b.CanonicalLabel())
	}
	first := w.ix.Count(a)
	// Churn the scratch pools with unrelated queries.
	runQueryBattery(w.ix, w)
	if got := w.ix.Count(b); got != first {
		t.Fatalf("memoized conjunction unstable: first Count=%d, after churn Count=%d", first, got)
	}
	var naive int
	withNaive(func() { naive = w.ix.Count(a) })
	if first != naive {
		t.Fatalf("memoized conjunction Count=%d, naive %d", first, naive)
	}
}

// TestConjunctionMemoBounded offers a prepared index ten times its memo
// budget in distinct conjunctions — pairs and triples of real leaves,
// then as many more tagged with a leaf nobody carries as it takes. The
// memo must stop at its budget with its accounting exact, and every
// answer, memoized or recomputed past the budget, must still equal the
// naive oracle's.
func TestConjunctionMemoBounded(t *testing.T) {
	w := newEquivWorld(rand.New(rand.NewSource(17)), 150)
	w.ix.Prepare()
	p := w.ix.prep
	if p.conjLimit != conjBudget(w.ix.Len()) || p.conjLimit < conjWordsFloor {
		t.Fatalf("memo limit %d, want conjBudget(%d) = %d", p.conjLimit, w.ix.Len(), conjBudget(w.ix.Len()))
	}

	var leaves []Dim
	for _, d := range w.dims {
		if len(d.And) == 0 {
			leaves = append(leaves, d)
		}
	}
	var conjs []Dim
	for i, a := range leaves {
		for j := i + 1; j < len(leaves); j++ {
			conjs = append(conjs, AndDim(a, leaves[j]))
			for k := j + 1; k < len(leaves); k++ {
				conjs = append(conjs, AndDim(a, leaves[j], leaves[k]))
			}
		}
	}
	offered := 0
	withNaive(func() {
		for _, d := range conjs {
			offered += conjCost(d.CanonicalLabel(), w.ix.postingsNaive(d))
		}
	})
	for n := 0; offered < 10*p.conjLimit; n++ {
		d := AndDim(leaves[n%len(leaves)], FieldDim("tag", fmt.Sprint(n)))
		conjs = append(conjs, d)
		offered += conjCost(d.CanonicalLabel(), nil)
	}

	partner := CategoryDim("issue")
	want := make([][2]int, len(conjs))
	withNaive(func() {
		for i, d := range conjs {
			want[i] = [2]int{w.ix.Count(d), w.ix.CountBoth(d, partner)}
		}
	})
	for pass := 0; pass < 2; pass++ { // the second pass hits what the first stored
		for i, d := range conjs {
			if got := [2]int{w.ix.Count(d), w.ix.CountBoth(d, partner)}; got != want[i] {
				t.Fatalf("pass %d: %s: Count, CountBoth = %v, naive %v", pass, d.Label(), got, want[i])
			}
			if p.conjWords > p.conjLimit {
				t.Fatalf("pass %d: memo holds %d words after %s, budget %d", pass, p.conjWords, d.Label(), p.conjLimit)
			}
		}
	}
	held := 0
	for key, posts := range p.conj {
		held += conjCost(key, posts)
	}
	if held != p.conjWords {
		t.Fatalf("memo accounts for %d words, its entries cost %d", p.conjWords, held)
	}
	if len(p.conj) == 0 || len(p.conj) >= len(conjs) || p.conjWords < p.conjLimit*9/10 {
		t.Fatalf("memo holds %d of %d conjunctions in %d of %d words — the bound was never reached",
			len(p.conj), len(conjs), p.conjWords, p.conjLimit)
	}
}

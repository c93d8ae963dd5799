package mining

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"bivoc/internal/annotate"
)

// The naive-vs-fast equivalence suite: the hash-set implementations in
// naive.go are the oracle, and every analytics entry point must return
// byte-identical results from the sorted-postings fast path — on raw
// indexes and on Prepared indexes (first call populates the conjunction
// memo, repeat calls hit it).

// withNaive runs fn with the naive oracle implementations selected.
func withNaive(fn func()) {
	old := UseNaiveSets
	UseNaiveSets = true
	defer func() { UseNaiveSets = old }()
	fn()
}

// equivWorld is one randomly generated document collection plus the
// dimension battery exercised against it.
type equivWorld struct {
	ix     *Index
	dims   []Dim    // leaf + conjunction dimensions, incl. empty-result ones
	cats   []string // categories, incl. one absent from the index
	fields []string // field names, incl. one absent from the index
}

// newEquivWorld builds a random index: a few categories with overlapping
// concept vocabularies, a couple of structured fields, and a spread of
// time buckets, so postings lists range from empty through dense.
func newEquivWorld(rng *rand.Rand, ndocs int) *equivWorld {
	cats := []string{"issue", "brand", "sentiment"}
	canon := map[string][]string{
		"issue":     {"billing", "outage", "upgrade", "cancel", "roaming"},
		"brand":     {"acme", "globex", "initech"},
		"sentiment": {"positive", "negative"},
	}
	fieldVals := map[string][]string{
		"outcome": {"reservation", "walkaway", "callback"},
		"agent":   {"A1", "A2", "A3", "A4"},
	}
	ix := NewIndex()
	for i := 0; i < ndocs; i++ {
		var concepts []annotate.Concept
		for _, cat := range cats {
			for _, cn := range canon[cat] {
				if rng.Intn(4) == 0 {
					concepts = append(concepts, annotate.Concept{Category: cat, Canonical: cn})
				}
			}
		}
		// Repeat a concept sometimes: Add must still index it once.
		if len(concepts) > 0 && rng.Intn(3) == 0 {
			concepts = append(concepts, concepts[rng.Intn(len(concepts))])
		}
		fields := map[string]string{}
		for f, vals := range fieldVals {
			if rng.Intn(5) != 0 {
				fields[f] = vals[rng.Intn(len(vals))]
			}
		}
		ix.Add(Document{
			ID:       fmt.Sprintf("doc-%04d", i),
			Concepts: concepts,
			Fields:   fields,
			Time:     rng.Intn(6),
		})
	}
	dims := []Dim{
		ConceptDim("issue", "billing"),
		ConceptDim("issue", "outage"),
		ConceptDim("brand", "acme"),
		ConceptDim("sentiment", "negative"),
		ConceptDim("issue", "no-such-concept"), // empty postings
		CategoryDim("issue"),
		CategoryDim("brand"),
		CategoryDim("missing-category"), // empty postings
		FieldDim("outcome", "reservation"),
		FieldDim("agent", "A2"),
		FieldDim("outcome", "no-such-value"), // empty postings
		AndDim(ConceptDim("issue", "billing"), FieldDim("outcome", "reservation")),
		AndDim(CategoryDim("brand"), ConceptDim("sentiment", "negative"), FieldDim("agent", "A1")),
		// Duplicate leaf: canonicalizes to the same conjunction cache key.
		AndDim(ConceptDim("issue", "cancel"), ConceptDim("issue", "cancel")),
		// Nested conjunction: flattening must agree with the naive recursion.
		AndDim(ConceptDim("issue", "upgrade"),
			AndDim(FieldDim("agent", "A3"), CategoryDim("sentiment"))),
		// Conjunction with an empty leaf short-circuits to no documents.
		AndDim(CategoryDim("issue"), ConceptDim("brand", "no-such-brand")),
	}
	return &equivWorld{
		ix:     ix,
		dims:   dims,
		cats:   append(append([]string(nil), cats...), "missing-category"),
		fields: []string{"outcome", "agent", "missing-field"},
	}
}

// over is the same query battery aimed at another index holding the
// world's documents.
func (w *equivWorld) over(ix *Index) *equivWorld {
	return &equivWorld{ix: ix, dims: w.dims, cats: w.cats, fields: w.fields}
}

// wideDims is a column list one wider than a mark word has bits: the
// table AssocMarginals counts per cell instead of in one mark pass.
func (w *equivWorld) wideDims() []Dim {
	wide := make([]Dim, markBits+1)
	for j := range wide {
		wide[j] = w.dims[j%len(w.dims)]
	}
	return wide
}

// checkEquiv pins every analytics entry point: the fast-path result must
// be deeply (bit-for-bit on floats) equal to the naive oracle's.
func checkEquiv(t *testing.T, w *equivWorld) {
	t.Helper()
	ix := w.ix
	for _, d := range w.dims {
		var want int
		withNaive(func() { want = ix.Count(d) })
		if got := ix.Count(d); got != want {
			t.Fatalf("Count(%s) = %d, naive %d", d.Label(), got, want)
		}
		var wantTrend []TrendPoint
		withNaive(func() { wantTrend = ix.Trend(d) })
		if got := ix.Trend(d); !reflect.DeepEqual(got, wantTrend) {
			t.Fatalf("Trend(%s) = %v, naive %v", d.Label(), got, wantTrend)
		}
	}
	// Pairs: every dimension against a rotating partner keeps the suite
	// quadratic-free while still covering empty/leaf/conjunction mixes.
	for i, a := range w.dims {
		b := w.dims[(i*7+3)%len(w.dims)]
		var wantN int
		withNaive(func() { wantN = ix.CountBoth(a, b) })
		if got := ix.CountBoth(a, b); got != wantN {
			t.Fatalf("CountBoth(%s, %s) = %d, naive %d", a.Label(), b.Label(), got, wantN)
		}
		var wantDocs []Document
		withNaive(func() { wantDocs = ix.DrillDown(a, b) })
		if got := ix.DrillDown(a, b); !reflect.DeepEqual(got, wantDocs) {
			t.Fatalf("DrillDown(%s, %s) diverges from naive", a.Label(), b.Label())
		}
	}
	for _, cat := range w.cats {
		var wantC []string
		withNaive(func() { wantC = ix.ConceptsInCategory(cat) })
		if got := ix.ConceptsInCategory(cat); !reflect.DeepEqual(got, wantC) {
			t.Fatalf("ConceptsInCategory(%q) = %#v, naive %#v", cat, got, wantC)
		}
		for _, d := range w.dims {
			var wantR []Relevance
			withNaive(func() { wantR = ix.RelativeFrequency(cat, d) })
			if got := ix.RelativeFrequency(cat, d); !reflect.DeepEqual(got, wantR) {
				t.Fatalf("RelativeFrequency(%q, %s) diverges from naive:\n got %#v\nwant %#v",
					cat, d.Label(), got, wantR)
			}
		}
	}
	for _, f := range w.fields {
		var wantV []string
		withNaive(func() { wantV = ix.FieldValues(f) })
		if got := ix.FieldValues(f); !reflect.DeepEqual(got, wantV) {
			t.Fatalf("FieldValues(%q) = %#v, naive %#v", f, got, wantV)
		}
	}
	// Association tables: a plain one, one that repeats a column, one
	// wider than a mark word (the per-cell fallback of AssocMarginals),
	// and the degenerate table with no rows (which must not divide by
	// zero either).
	rows := []Dim{w.dims[0], w.dims[2], w.dims[4], w.dims[11]}
	cols := []Dim{w.dims[8], w.dims[9], w.dims[10]}
	for _, tc := range []struct {
		name       string
		rows, cols []Dim
	}{
		{"plain", rows, cols},
		{"a repeated column", rows, []Dim{w.dims[8], w.dims[9], w.dims[8]}},
		{"65 columns", rows, w.wideDims()},
		{"no rows", nil, cols},
	} {
		for _, conf := range []float64{0, 0.90, 0.95, 0.99} {
			var want *AssocTable
			withNaive(func() { want = ix.Associate(tc.rows, tc.cols, conf) })
			if got := ix.AssociateN(tc.rows, tc.cols, conf, 0); !reflect.DeepEqual(got, want) {
				t.Fatalf("AssociateN(%s, conf=%v) diverges from naive:\n got %#v\nwant %#v",
					tc.name, conf, got, want)
			}
		}
	}
}

// TestNaiveFastEquivalence is the core property suite: over random
// worlds, the fast path must be indistinguishable from the hash-set
// oracle, before Prepare, after Prepare (twice, so the conjunction memo
// is exercised on both the miss and the hit path), and on the live
// index inside an unsealed StreamIndex.
func TestNaiveFastEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20090))
	for trial := 0; trial < 6; trial++ {
		trial := trial
		ndocs := 30 + rng.Intn(150)
		seed := rng.Int63()
		t.Run(fmt.Sprintf("world-%d", trial), func(t *testing.T) {
			w := newEquivWorld(rand.New(rand.NewSource(seed)), ndocs)
			checkEquiv(t, w) // raw index: no prepared caches
			w.ix.Prepare()
			w.ix.Prepare()   // Prepare is idempotent
			checkEquiv(t, w) // prepared: cold memo
			checkEquiv(t, w) // prepared: warm memo

			live := NewStreamIndex()
			live.AddBatch(allDocs(w.ix))
			live.Snapshot(func(ix *Index) { checkEquiv(t, w.over(ix)) })
		})
	}
}

// TestAddInvalidatesPrepare pins that growing a Prepared index drops its
// caches rather than serving answers over a stale snapshot.
func TestAddInvalidatesPrepare(t *testing.T) {
	w := newEquivWorld(rand.New(rand.NewSource(7)), 40)
	w.ix.Prepare()
	before := w.ix.ConceptsInCategory("issue")
	w.ix.Add(Document{
		ID: "late-arrival",
		Concepts: []annotate.Concept{
			{Category: "issue", Canonical: "zz-brand-new"},
		},
	})
	after := w.ix.ConceptsInCategory("issue")
	found := false
	for _, c := range after {
		if c == "zz-brand-new" {
			found = true
		}
	}
	if !found {
		t.Fatalf("ConceptsInCategory after post-Prepare Add = %v (stale cache? before: %v)",
			after, before)
	}
	checkEquiv(t, w) // un-prepared again; must still match the oracle
}

// perCellAssocMarginals is the association oracle: every marginal is a
// Count and every cell a CountBoth, one sorted merge (or gallop) per
// cell — the extraction AssocMarginals used before it counted a
// segment's cells in one pass.
func perCellAssocMarginals(q Querier, rows, cols []Dim) AssocMarginals {
	m := AssocMarginals{N: q.Len(), Nver: make([]int, len(rows)), Nhor: make([]int, len(cols)), Ncell: make([][]int, len(rows))}
	for j, c := range cols {
		m.Nhor[j] = q.Count(c)
	}
	for i, r := range rows {
		m.Nver[i] = q.Count(r)
		m.Ncell[i] = make([]int, len(cols))
		for j, c := range cols {
			m.Ncell[i][j] = q.CountBoth(r, c)
		}
	}
	return m
}

// perConceptRelFreqMarginals is the relevancy oracle: one CountBoth per
// concept of the category, the loop RelFreqMarginals used to run.
func perConceptRelFreqMarginals(q Querier, category string, featured Dim) RelFreqMarginals {
	m := RelFreqMarginals{N: q.Len(), SubsetSize: q.Count(featured)}
	for _, c := range q.ConceptDF(category) {
		m.Concepts = append(m.Concepts, ConceptMarginal{
			Concept: c.Concept, InSubset: q.CountBoth(ConceptDim(category, c.Concept), featured), InAll: c.DF})
	}
	sort.Slice(m.Concepts, func(i, j int) bool { return m.Concepts[i].Concept < m.Concepts[j].Concept })
	return m
}

// checkMarginalsEquiv pins the one-pass marginal extractions against the
// per-cell oracles over one Querier.
func checkMarginalsEquiv(t *testing.T, w *equivWorld, q Querier) {
	t.Helper()
	conj, conj3 := w.dims[11], w.dims[12]
	tables := []struct {
		name       string
		rows, cols []Dim
	}{
		{"leaf rows and columns", w.dims[:8], w.dims[8:11]},
		{"the same column twice", []Dim{w.dims[0], w.dims[5]}, []Dim{w.dims[8], w.dims[9], w.dims[8]}},
		{"a conjunction row", []Dim{conj, conj3, w.dims[5]}, []Dim{w.dims[8], w.dims[9]}},
		{"a conjunction column", []Dim{w.dims[0], w.dims[5], w.dims[6]}, []Dim{conj, w.dims[9], conj3}},
		{"wider than the mark word", w.dims[:3], w.wideDims()},
		{"the whole battery squared", w.dims, w.dims},
		{"no rows", nil, w.dims[8:11]},
	}
	for _, tc := range tables {
		got, want := q.AssocMarginals(tc.rows, tc.cols), perCellAssocMarginals(q, tc.rows, tc.cols)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("AssocMarginals(%s) diverges from the per-cell oracle:\n got %#v\nwant %#v", tc.name, got, want)
		}
	}
	for _, cat := range w.cats {
		for _, d := range w.dims {
			got, want := q.RelFreqMarginals(cat, d), perConceptRelFreqMarginals(q, cat, d)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("RelFreqMarginals(%q, %s) diverges from the per-concept oracle:\n got %#v\nwant %#v",
					cat, d.Label(), got, want)
			}
		}
	}
}

// TestOnePassMarginalsMatchPerCell is the association oracle over the
// random worlds: monolithic and segmented (with an empty segment in the
// set), raw and prepared, fast and naive. It also drives the mark pass
// directly, to see that it leaves no document marked in the pooled
// scratch.
func TestOnePassMarginalsMatchPerCell(t *testing.T) {
	rng := rand.New(rand.NewSource(20160))
	for trial := 0; trial < 4; trial++ {
		ndocs := 30 + rng.Intn(150)
		seed := rng.Int63()
		t.Run(fmt.Sprintf("world-%d", trial), func(t *testing.T) {
			w := newEquivWorld(rand.New(rand.NewSource(seed)), ndocs)
			segs := partitionSegments(allDocs(w.ix), 3)
			empty := NewIndex()
			empty.Prepare()
			set := NewSegmentSet(segs[0], empty, segs[1], segs[2])

			checkMarginalsEquiv(t, w, w.ix) // raw index
			w.ix.Prepare()
			checkMarginalsEquiv(t, w, w.ix) // prepared: cold, then warm conjunction memo
			checkMarginalsEquiv(t, w, w.ix)
			checkMarginalsEquiv(t, w, set)
			withNaive(func() {
				checkMarginalsEquiv(t, w, w.ix)
				checkMarginalsEquiv(t, w, set)
			})

			ctx := acquireQueryCtx()
			defer releaseQueryCtx(ctx)
			posts := w.ix.marginPostings(ctx, w.dims)
			ncell := make([][]int, len(posts))
			for i := range ncell {
				ncell[i] = make([]int, len(posts))
			}
			ctx.countCells(ncell, w.ix.Len(), posts, posts)
			for i, a := range posts {
				for j, b := range posts {
					if want := countIntersect(a, b); ncell[i][j] != want {
						t.Fatalf("countCells[%d][%d] = %d, countIntersect %d", i, j, ncell[i][j], want)
					}
				}
			}
			for p, mark := range ctx.docMarks(w.ix.Len()) {
				if mark != 0 {
					t.Fatalf("countCells left document %d marked %#x", p, mark)
				}
			}
		})
	}
}

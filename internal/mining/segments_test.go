package mining

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// The segmented-index oracle suite: a SegmentSet over any partition of a
// corpus must be byte-identical (bit-for-bit on floats) to a monolithic
// Index over the same documents, on every Querier entry point, in both
// the fast-path and naive-oracle modes, and across compactions.

// partitionSegments splits docs round-robin into k sealed (Prepared)
// segments. Round-robin interleaves IDs across segments, so per-segment
// doc positions never coincide with monolithic positions — the harshest
// layout for fan-in bugs.
func partitionSegments(docs []Document, k int) []*Index {
	segs := make([]*Index, k)
	for i := range segs {
		segs[i] = NewIndex()
	}
	for i, d := range docs {
		segs[i%k].Add(d)
	}
	for _, ix := range segs {
		ix.Prepare()
	}
	return segs
}

// checkSegmentEquiv pins every Querier entry point: the segmented
// fan-in must deeply equal the monolithic result.
func checkSegmentEquiv(t *testing.T, w *equivWorld, set *SegmentSet) {
	t.Helper()
	ix := w.ix
	if got, want := set.Len(), ix.Len(); got != want {
		t.Fatalf("Len() = %d, monolithic %d", got, want)
	}
	for _, d := range w.dims {
		if got, want := set.Count(d), ix.Count(d); got != want {
			t.Fatalf("Count(%s) = %d, monolithic %d", d.Label(), got, want)
		}
		if got, want := set.Trend(d), ix.Trend(d); !reflect.DeepEqual(got, want) {
			t.Fatalf("Trend(%s) = %v, monolithic %v", d.Label(), got, want)
		}
	}
	for i, a := range w.dims {
		b := w.dims[(i*7+3)%len(w.dims)]
		if got, want := set.CountBoth(a, b), ix.CountBoth(a, b); got != want {
			t.Fatalf("CountBoth(%s, %s) = %d, monolithic %d", a.Label(), b.Label(), got, want)
		}
		if got, want := set.DrillDown(a, b), ix.DrillDown(a, b); !reflect.DeepEqual(got, want) {
			t.Fatalf("DrillDown(%s, %s) diverges from monolithic", a.Label(), b.Label())
		}
		checkDrillDownLimit(t, set, ix.DrillDown(a, b), a, b)
		checkDrillDownLimit(t, ix, ix.DrillDown(a, b), a, b)
	}
	for _, cat := range w.cats {
		if got, want := set.ConceptsInCategory(cat), ix.ConceptsInCategory(cat); !reflect.DeepEqual(got, want) {
			t.Fatalf("ConceptsInCategory(%q) = %#v, monolithic %#v", cat, got, want)
		}
		for _, d := range w.dims {
			got, want := set.RelativeFrequency(cat, d), ix.RelativeFrequency(cat, d)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("RelativeFrequency(%q, %s) diverges from monolithic:\n got %#v\nwant %#v",
					cat, d.Label(), got, want)
			}
		}
	}
	for _, f := range w.fields {
		if got, want := set.FieldValues(f), ix.FieldValues(f); !reflect.DeepEqual(got, want) {
			t.Fatalf("FieldValues(%q) = %#v, monolithic %#v", f, got, want)
		}
	}
	rows := []Dim{w.dims[0], w.dims[2], w.dims[4], w.dims[11]}
	cols := []Dim{w.dims[8], w.dims[9], w.dims[10]}
	for _, conf := range []float64{0, 0.90, 0.95, 0.99} {
		got, want := set.AssociateN(rows, cols, conf, 0), ix.AssociateN(rows, cols, conf, 0)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("AssociateN(conf=%v) diverges from monolithic:\n got %#v\nwant %#v", conf, got, want)
		}
	}
	if got, want := set.AssociateN(nil, cols, 0.95, 0), ix.AssociateN(nil, cols, 0.95, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("AssociateN with no rows diverges from monolithic")
	}
}

// checkDrillDownLimit is the drill-down oracle: at every limit the
// limit-aware path returns the whole cell's size and exactly the first
// limit documents of the unlimited, ID-sorted cell — which is all a
// response needs for its count, its truncated flag and its docs. The
// dimension battery puts conjunctions on either side of the pair.
func checkDrillDownLimit(t *testing.T, q Querier, cell []Document, a, b Dim) {
	t.Helper()
	for _, limit := range []int{0, 1, 5, 50, len(cell), len(cell) + 1} {
		docs, count := q.DrillDownLimit(a, b, limit)
		if count != len(cell) {
			t.Fatalf("DrillDownLimit(%s, %s, %d) count = %d, cell holds %d", a.Label(), b.Label(), limit, count, len(cell))
		}
		want := cell[:min(limit, len(cell))]
		if len(docs) != len(want) || (len(want) > 0 && !reflect.DeepEqual(docs, want)) {
			t.Fatalf("DrillDownLimit(%s, %s, %d) is not the cell's first %d documents:\n got %v\nwant %v",
				a.Label(), b.Label(), limit, len(want), docIDs(docs), docIDs(want))
		}
	}
}

func docIDs(docs []Document) []string {
	ids := make([]string, len(docs))
	for i, d := range docs {
		ids[i] = d.ID
	}
	return ids
}

// TestDrillDownLimitOutOfOrderIndex pins the fallback: an index built
// by Add in descending-ID order has no position order to stop early on,
// so a limited drill-down must still sort the whole cell — alone, and as
// one segment among ordered ones.
func TestDrillDownLimitOutOfOrderIndex(t *testing.T) {
	w := newEquivWorld(rand.New(rand.NewSource(77)), 120)
	docs := allDocs(w.ix)
	w.ix.Prepare()
	reversed := NewIndex()
	for i := len(docs)/2 - 1; i >= 0; i-- {
		reversed.Add(docs[i])
	}
	reversed.Prepare()
	if reversed.idOrdered() {
		t.Fatal("an index built in descending-ID order reports ID-ordered positions")
	}
	ordered := partitionSegments(docs[len(docs)/2:], 2)
	if !ordered[0].idOrdered() {
		t.Fatal("a segment built in ascending-ID order does not report ID-ordered positions")
	}
	half := NewIndex()
	for _, d := range docs[:len(docs)/2] {
		half.Add(d)
	}
	set := NewSegmentSet(append([]*Index{reversed}, ordered...)...)
	for i, a := range w.dims {
		b := w.dims[(i*7+3)%len(w.dims)]
		checkDrillDownLimit(t, reversed, half.DrillDown(a, b), a, b)
		checkDrillDownLimit(t, set, w.ix.DrillDown(a, b), a, b)
	}
}

// TestSegmentSetMatchesMonolithic is the tentpole oracle: segment
// counts {1, 2, 8}, fast and naive modes, prepared and raw monolithic
// baselines, repeated so the prepared caches are hit warm too.
func TestSegmentSetMatchesMonolithic(t *testing.T) {
	rng := rand.New(rand.NewSource(20097))
	for trial := 0; trial < 3; trial++ {
		ndocs := 40 + rng.Intn(140)
		seed := rng.Int63()
		for _, k := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("world-%d-segs-%d", trial, k), func(t *testing.T) {
				w := newEquivWorld(rand.New(rand.NewSource(seed)), ndocs)
				set := NewSegmentSet(partitionSegments(allDocs(w.ix), k)...)
				checkSegmentEquiv(t, w, set) // raw monolithic baseline
				w.ix.Prepare()
				checkSegmentEquiv(t, w, set) // prepared baseline, cold caches
				checkSegmentEquiv(t, w, set) // warm conjunction memo
				withNaive(func() { checkSegmentEquiv(t, w, set) })
			})
		}
	}
}

// TestSegmentSetAcrossCompaction pins that MergeSegments is invisible
// to readers: fan-in over 8 segments, over progressively compacted
// sets, and over the fully merged single segment all match the
// monolithic index byte for byte.
func TestSegmentSetAcrossCompaction(t *testing.T) {
	w := newEquivWorld(rand.New(rand.NewSource(41)), 160)
	segs := partitionSegments(allDocs(w.ix), 8)
	w.ix.Prepare()

	checkSegmentEquiv(t, w, NewSegmentSet(segs...))

	// Size-tiered style step: merge the three smallest segments.
	byLen := append([]*Index(nil), segs...)
	for i := 0; i < len(byLen); i++ {
		for j := i + 1; j < len(byLen); j++ {
			if byLen[j].Len() < byLen[i].Len() {
				byLen[i], byLen[j] = byLen[j], byLen[i]
			}
		}
	}
	merged := MergeSegments(byLen[0], byLen[1], byLen[2])
	compacted := append([]*Index{merged}, byLen[3:]...)
	checkSegmentEquiv(t, w, NewSegmentSet(compacted...))
	withNaive(func() { checkSegmentEquiv(t, w, NewSegmentSet(compacted...)) })

	// Full compaction down to one segment.
	one := MergeSegments(segs...)
	checkSegmentEquiv(t, w, NewSegmentSet(one))
	if one.Len() != w.ix.Len() {
		t.Fatalf("fully merged segment has %d docs, corpus %d", one.Len(), w.ix.Len())
	}
}

// TestSegmentSetEdgeCases pins the degenerate shapes: no segments,
// empty member segments, and a single-doc corpus.
func TestSegmentSetEdgeCases(t *testing.T) {
	empty := NewSegmentSet()
	if empty.Len() != 0 || empty.Count(CategoryDim("issue")) != 0 {
		t.Fatalf("empty SegmentSet is not empty")
	}
	if got := empty.DrillDown(CategoryDim("issue"), CategoryDim("brand")); got != nil {
		t.Fatalf("empty DrillDown = %#v, want nil", got)
	}
	if got := empty.ConceptsInCategory("issue"); got == nil || len(got) != 0 {
		t.Fatalf("empty ConceptsInCategory = %#v, want non-nil empty", got)
	}
	if got := empty.FieldValues("outcome"); got != nil {
		t.Fatalf("empty FieldValues = %#v, want nil", got)
	}
	if got := empty.Trend(CategoryDim("issue")); got == nil || len(got) != 0 {
		t.Fatalf("empty Trend = %#v, want non-nil empty", got)
	}
	tbl := empty.AssociateN([]Dim{CategoryDim("issue")}, []Dim{FieldDim("outcome", "x")}, 0.95, 0)
	if tbl.Cells[0][0].N != 0 || tbl.Cells[0][0].PointIndex != 0 {
		t.Fatalf("empty AssociateN cell = %#v, want zero cell", tbl.Cells[0][0])
	}

	// A set containing empty segments must behave like the non-empty one.
	w := newEquivWorld(rand.New(rand.NewSource(9)), 60)
	w.ix.Prepare()
	segs := partitionSegments(allDocs(w.ix), 3)
	padded := append([]*Index{NewIndex()}, segs...)
	padded = append(padded, NewIndex())
	for _, ix := range padded {
		ix.Prepare()
	}
	checkSegmentEquiv(t, w, NewSegmentSet(padded...))
}

// TestSealMatchesStreamIndex is the sealer oracle: whatever order a
// batch arrives in, Seal builds the index StreamIndex{AddBatch; Seal}
// builds — the same documents at the same positions under the same
// postings (Export), positions recorded as ID-ordered, and every
// checkEquiv query equal to the naive oracle's answer over it.
func TestSealMatchesStreamIndex(t *testing.T) {
	w := newEquivWorld(rand.New(rand.NewSource(20171)), 200)
	docs := allDocs(w.ix)
	si := NewStreamIndex()
	si.AddBatch(docs)
	want := si.Seal()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 4; trial++ {
		shuffled := append([]Document(nil), docs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got := Seal(shuffled)
		if !reflect.DeepEqual(got.Export(), want.Export()) {
			t.Fatalf("trial %d: Seal over a shuffled batch differs from StreamIndex{AddBatch; Seal}", trial)
		}
		if got.prep == nil || !got.idOrdered() {
			t.Fatalf("trial %d: sealed index is not Prepared with ID-ordered positions", trial)
		}
		checkEquiv(t, w.over(got))
		checkSegmentEquiv(t, w.over(want), NewSegmentSet(got))
	}
}

// TestSealDuplicateIDPanics: the tripwire StreamIndex.Add carries for
// retrying pipelines holds on the direct route too, with the same
// message, wherever in the batch the repeat sits.
func TestSealDuplicateIDPanics(t *testing.T) {
	docs := streamCorpus(6)
	batch := append(append([]Document(nil), docs...), docs[2])
	defer func() {
		msg, _ := recover().(string)
		if want := "duplicate document ID " + docs[2].ID + " (an upstream retry delivered the same item twice?)"; !strings.Contains(msg, want) {
			t.Fatalf("Seal over a repeated ID panicked with %q, want a message containing %q", msg, want)
		}
	}()
	Seal(batch)
}

// TestSealBuildsOnce pins what sealing a batch directly is for: the
// StreamIndex route indexes the batch on AddBatch and again on Seal, so
// the direct route must allocate clearly less than it — at most 0.6 of
// its bytes on a publish-sized batch.
func TestSealBuildsOnce(t *testing.T) {
	docs := allDocs(newEquivWorld(rand.New(rand.NewSource(3)), 1500).ix)
	allocated := func(build func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		build()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	batch := append([]Document(nil), docs...)
	direct := allocated(func() { Seal(batch) })
	stream := allocated(func() {
		si := NewStreamIndex()
		si.AddBatch(docs)
		si.Seal()
	})
	if float64(direct) > 0.6*float64(stream) {
		t.Fatalf("Seal allocated %d bytes, StreamIndex{AddBatch; Seal} %d: more than 0.6 of it", direct, stream)
	}
}

package mining_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"bivoc/internal/mining"
	"bivoc/internal/voctest"
)

// The segmented-index oracle suite: a SegmentSet over any partition of a
// corpus must be byte-identical (bit-for-bit on floats) to the naive view
// of a monolithic Index over the same documents, on every Querier entry
// point, and across compactions.

// TestSegmentSetDrillDownLimitMerge holds the limited drill-down of a
// set — each segment's first positions, merged by ID — to the monolithic
// naive view: every shape of the world's drill-down battery (a field's
// column on either side, the two sides' postings intersected,
// conjunctions) and a conjunction on both sides, at limits 0, 1, half
// the cell, the cell, past it and unlimited, over 1, 2 and 8 segments
// and after a compaction.
func TestSegmentSetDrillDownLimitMerge(t *testing.T) {
	t.Parallel()
	w := voctest.NewWorld(3907, 170)
	naive := oracle(w)
	segs := w.Segments(8)
	sets := []struct {
		name string
		set  *mining.SegmentSet
	}{
		{"1 segment", mining.NewSegmentSet(w.Segments(1)...)},
		{"2 segments", mining.NewSegmentSet(w.Segments(2)...)},
		{"8 segments", mining.NewSegmentSet(segs...)},
		{"8 segments compacted to 3", mining.NewSegmentSet(mining.MergeSegments(segs[0], segs[3], segs[6]), mining.MergeSegments(segs[1:3]...), mining.MergeSegments(segs[4:6]...), segs[7])},
	}
	cells := append(w.Cells[:len(w.Cells):len(w.Cells)], [2]mining.Dim{w.Dims[11], w.Dims[12]}, [2]mining.Dim{w.Dims[11], w.Dims[5]})
	for _, tc := range sets {
		for _, c := range cells {
			whole := naive.DrillDown(c[0], c[1])
			for _, limit := range []int{0, 1, len(whole) / 2, len(whole), len(whole) + 1, -1} {
				got, count := tc.set.DrillDownLimit(c[0], c[1], limit)
				want, wantCount := naive.DrillDownLimit(c[0], c[1], limit)
				if count != wantCount || len(got) != len(want) ||
					(len(want) > 0 && !reflect.DeepEqual(voctest.AsStored(got), voctest.AsStored(want))) {
					t.Fatalf("%s: DrillDownLimit(%s, %s, %d) = %d documents of %d, want %d of %d",
						tc.name, c[0].Label(), c[1].Label(), limit, len(got), count, len(want), wantCount)
				}
			}
		}
	}
}

// TestSegmentSetDrillDownLimitAllocs pins that the merge costs what it
// returns: once warm, a limited drill-down over 8 segments allocates no
// more than over 1 (its result, from pooled scratch), whatever shape
// the cell, conjunctions included.
func TestSegmentSetDrillDownLimitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race; the count would be the pool's")
	}
	w := voctest.NewWorld(2027, 300)
	one, eight := mining.NewSegmentSet(w.Segments(1)...), mining.NewSegmentSet(w.Segments(8)...)
	for _, c := range w.Cells {
		allocs := func(set *mining.SegmentSet) float64 {
			set.DrillDownLimit(c[0], c[1], 20) // warm
			return testing.AllocsPerRun(100, func() { set.DrillDownLimit(c[0], c[1], 20) })
		}
		if got, base := allocs(eight), allocs(one); got > base {
			t.Errorf("DrillDownLimit(%s, %s, 20) allocates %.1f objects per call over 8 segments, %.1f over 1",
				c[0].Label(), c[1].Label(), got, base)
		}
	}
}

// TestSegmentSetConjunctionKeyOncePerQuery pins that a query takes one
// query context however many segments it spans, so a conjunction's memo
// key (its canonical label, which allocates) is built once per query,
// not once per segment; and that an Index answers as the set of its one
// segment. Once warm:
//
//   - Count, CountBoth and a limited DrillDownLimit with a conjunction
//     operand allocate no more over 8 segments than over 1;
//   - Trend, RelFreqMarginals and AssocMarginals, whose parts merge per
//     segment, allocate more over 8 segments, but a conjunction operand
//     adds no more over 8 than over 1 to what the same query over a leaf
//     allocates;
//   - a set of one segment allocates exactly what its Index does, on
//     every Querier method.
func TestSegmentSetConjunctionKeyOncePerQuery(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under -race; the count would be the pool's")
	}
	w := voctest.NewWorld(2027, 4000)
	ix := w.Segments(1)[0]
	one, eight := mining.NewSegmentSet(ix), mining.NewSegmentSet(w.Segments(8)...)
	billing, outcome := mining.ConceptDim("issue", "billing"), mining.FieldDim("outcome", "reservation")
	conj := mining.AndDim(billing, outcome)
	conjRows := []mining.Dim{conj, mining.ConceptDim("issue", "outage"), mining.CategoryDim("brand")}
	leafRows := []mining.Dim{billing, conjRows[1], conjRows[2]}
	cols := []mining.Dim{outcome, mining.FieldDim("outcome", "callback")}
	allocs := func(q mining.Querier, query func(mining.Querier)) float64 {
		query(q) // warm
		return testing.AllocsPerRun(100, func() { query(q) })
	}
	for name, query := range map[string]func(mining.Querier){
		"Count":          func(q mining.Querier) { q.Count(conj) },
		"CountBoth":      func(q mining.Querier) { q.CountBoth(conj, outcome) },
		"DrillDownLimit": func(q mining.Querier) { q.DrillDownLimit(conj, outcome, 20) },
	} {
		if got, base := allocs(eight, query), allocs(one, query); got > base {
			t.Errorf("%s(%s) allocates %.1f objects per call over 8 segments, %.1f over 1", name, conj.Label(), got, base)
		}
	}
	for name, query := range map[string][2]func(mining.Querier){ // the query with a conjunction, and over a leaf
		"Trend": {
			func(q mining.Querier) { q.Trend(conj) },
			func(q mining.Querier) { q.Trend(billing) },
		},
		"RelFreqMarginals": {
			func(q mining.Querier) { q.RelFreqMarginals("issue", conj) },
			func(q mining.Querier) { q.RelFreqMarginals("issue", billing) },
		},
		"AssocMarginals": {
			func(q mining.Querier) { q.AssocMarginals(conjRows, cols) },
			func(q mining.Querier) { q.AssocMarginals(leafRows, cols) },
		},
	} {
		added := func(q mining.Querier) float64 { return allocs(q, query[0]) - allocs(q, query[1]) }
		if got, base := added(eight), added(one); got > base {
			t.Errorf("%s: a conjunction adds %.1f objects per call over 8 segments, %.1f over 1", name, got, base)
		}
	}
	for name, query := range map[string]func(mining.Querier){
		"Len":                func(q mining.Querier) { q.Len() },
		"Count":              func(q mining.Querier) { q.Count(conj) },
		"CountBoth":          func(q mining.Querier) { q.CountBoth(conj, outcome) },
		"DrillDown":          func(q mining.Querier) { q.DrillDown(conj, outcome) },
		"DrillDownLimit":     func(q mining.Querier) { q.DrillDownLimit(conj, outcome, 20) },
		"ConceptsInCategory": func(q mining.Querier) { q.ConceptsInCategory("issue") },
		"FieldValues":        func(q mining.Querier) { q.FieldValues("outcome") },
		"RelativeFrequency":  func(q mining.Querier) { q.RelativeFrequency("issue", conj) },
		"AssociateN":         func(q mining.Querier) { q.AssociateN(conjRows, cols, 0.95, 0) },
		"Trend":              func(q mining.Querier) { q.Trend(billing) },
		"ConceptDF":          func(q mining.Querier) { q.ConceptDF("issue") },
		"RelFreqMarginals":   func(q mining.Querier) { q.RelFreqMarginals("issue", conj) },
		"AssocMarginals":     func(q mining.Querier) { q.AssocMarginals(conjRows, cols) },
	} {
		if got, want := allocs(one, query), allocs(ix, query); got != want {
			t.Errorf("%s allocates %.1f objects per call over a set of one segment, %.1f over its Index", name, got, want)
		}
	}
}

// TestSegmentSetMatchesMonolithic is the tentpole oracle: segment
// counts {1, 2, 8} against the monolithic naive view, repeated so the
// segments' conjunction memos are hit warm too — over the world's own
// times, and re-timed so that each segment holds a single time.
func TestSegmentSetMatchesMonolithic(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(20097))
	for trial := 0; trial < 3; trial++ {
		ndocs := 40 + rng.Intn(140)
		seed := rng.Int63()
		for _, k := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("world-%d-segs-%d", trial, k), func(t *testing.T) {
				t.Parallel()
				w := voctest.NewWorld(seed, ndocs)
				for _, w := range []*voctest.World{w, w.OneTimePerSegment(k)} {
					set, naive := mining.NewSegmentSet(w.Segments(k)...), oracle(w)
					voctest.CheckQueriers(t, set, naive, w) // cold caches
					voctest.CheckQueriers(t, set, naive, w) // warm conjunction memos
				}
			})
		}
	}
}

// TestSegmentSetAcrossCompaction pins that MergeSegments is invisible
// to readers: fan-in over 8 segments, over progressively compacted
// sets, and over the fully merged single segment all match the
// monolithic oracle byte for byte.
func TestSegmentSetAcrossCompaction(t *testing.T) {
	t.Parallel()
	w := voctest.NewWorld(41, 160)
	naive := oracle(w)
	segs := w.Segments(8)

	voctest.CheckQueriers(t, mining.NewSegmentSet(segs...), naive, w)

	// Size-tiered style step: merge the three smallest segments.
	byLen := append([]*mining.Index(nil), segs...)
	sort.SliceStable(byLen, func(i, j int) bool { return byLen[i].Len() < byLen[j].Len() })
	merged := mining.MergeSegments(byLen[0], byLen[1], byLen[2])
	compacted := append([]*mining.Index{merged}, byLen[3:]...)
	voctest.CheckQueriers(t, mining.NewSegmentSet(compacted...), naive, w)

	// Full compaction down to one segment.
	one := mining.MergeSegments(segs...)
	voctest.CheckQueriers(t, mining.NewSegmentSet(one), naive, w)
	voctest.CheckQueriers(t, one, naive, w)
}

// TestSegmentSetEdgeCases pins the degenerate shapes: no segments,
// empty member segments, and segments outnumbering the documents.
func TestSegmentSetEdgeCases(t *testing.T) {
	t.Parallel()
	empty := mining.NewSegmentSet()
	if empty.Len() != 0 || empty.Count(mining.CategoryDim("issue")) != 0 {
		t.Fatalf("empty SegmentSet is not empty")
	}
	if got := empty.DrillDown(mining.CategoryDim("issue"), mining.CategoryDim("brand")); got != nil {
		t.Fatalf("empty DrillDown = %#v, want nil", got)
	}
	if got := empty.ConceptsInCategory("issue"); got == nil || len(got) != 0 {
		t.Fatalf("empty ConceptsInCategory = %#v, want non-nil empty", got)
	}
	if got := empty.FieldValues("outcome"); got != nil {
		t.Fatalf("empty FieldValues = %#v, want nil", got)
	}
	if got := empty.Trend(mining.CategoryDim("issue")); got == nil || len(got) != 0 {
		t.Fatalf("empty Trend = %#v, want non-nil empty", got)
	}
	tbl := empty.AssociateN([]mining.Dim{mining.CategoryDim("issue")}, []mining.Dim{mining.FieldDim("outcome", "x")}, 0.95, 0)
	if tbl.Cells[0][0].N != 0 || tbl.Cells[0][0].PointIndex != 0 {
		t.Fatalf("empty AssociateN cell = %#v, want zero cell", tbl.Cells[0][0])
	}
	// No segments at all is the fast configuration of the empty corpus.
	none := voctest.NewWorld(9, 0)
	voctest.CheckQueriers(t, empty, oracle(none), none)

	// A set containing empty segments must behave like the non-empty one.
	w := voctest.NewWorld(9, 60)
	padded := append([]*mining.Index{mining.Seal(nil)}, w.Segments(3)...)
	padded = append(padded, mining.Seal(nil))
	voctest.CheckQueriers(t, mining.NewSegmentSet(padded...), oracle(w), w)

	// More segments than documents: the partition's tail is empty.
	few := voctest.NewWorld(10, 5)
	voctest.CheckQueriers(t, mining.NewSegmentSet(few.Segments(8)...), oracle(few), few)
}

// TestSealMatchesStreamIndex is the sealer oracle: whatever order a
// batch arrives in, Seal builds the index StreamIndex{AddBatch; Seal}
// builds — the same documents at the same positions under the same
// postings, positions in strictly increasing ID order, and every query of the
// battery equal to the naive oracle's answer over it.
func TestSealMatchesStreamIndex(t *testing.T) {
	t.Parallel()
	w := voctest.NewWorld(20171, 200)
	naive := oracle(w)
	si := mining.NewStreamIndex()
	si.AddBatch(w.Docs)
	want := si.Seal()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 4; trial++ {
		shuffled := append([]mining.Document(nil), w.Docs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got := mining.Seal(shuffled)
		if !reflect.DeepEqual(docsOf(got), docsOf(want)) || !reflect.DeepEqual(snapshotPostings(got), snapshotPostings(want)) {
			t.Fatalf("trial %d: Seal over a shuffled batch differs from StreamIndex{AddBatch; Seal}", trial)
		}
		for i := 1; i < got.Len(); i++ {
			if got.DocID(i-1) >= got.DocID(i) {
				t.Fatalf("trial %d: sealed positions %d and %d hold IDs %q and %q, out of ID order", trial, i-1, i, got.DocID(i-1), got.DocID(i))
			}
		}
		voctest.CheckQueriers(t, got, naive, w)
		voctest.CheckQueriers(t, mining.NewSegmentSet(got), naive, w)
	}
}

// docsOf lists an index's documents by position.
func docsOf(ix *mining.Index) []mining.Document {
	docs := make([]mining.Document, ix.Len())
	for i := range docs {
		docs[i] = ix.Doc(i)
	}
	return docs
}

// TestMaterializeCopiesTheBacking: an index materialized from another
// holds the same documents at the same positions under the same postings,
// answers the battery as the naive oracle does, cold and warm, and reads
// nothing of the backing it was copied from afterwards.
func TestMaterializeCopiesTheBacking(t *testing.T) {
	t.Parallel()
	w := voctest.NewWorld(20172, 150)
	src := mining.Seal(w.Docs)
	reads := &countingBacking{Backing: src.Backing()}
	got := mining.Materialize(reads)
	if !reflect.DeepEqual(docsOf(got), docsOf(src)) || !reflect.DeepEqual(snapshotPostings(got), snapshotPostings(src)) {
		t.Fatal("the materialized index does not hold what its backing holds")
	}
	copied := reads.calls
	naive := oracle(w)
	voctest.CheckQueriers(t, got, naive, w)
	voctest.CheckQueriers(t, got, naive, w)
	if reads.calls != copied {
		t.Fatalf("queries over the materialized index read its source %d times", reads.calls-copied)
	}
}

// countingBacking counts the calls that reach a backing.
type countingBacking struct {
	mining.Backing
	calls int
}

func (c *countingBacking) Doc(i int) mining.Document { c.calls++; return c.Backing.Doc(i) }
func (c *countingBacking) DocID(i int) string        { c.calls++; return c.Backing.DocID(i) }
func (c *countingBacking) DocTime(i int) int         { c.calls++; return c.Backing.DocTime(i) }
func (c *countingBacking) ConceptPostings(category, canonical string) []int {
	c.calls++
	return c.Backing.ConceptPostings(category, canonical)
}
func (c *countingBacking) CategoryPostings(category string) []int {
	c.calls++
	return c.Backing.CategoryPostings(category)
}
func (c *countingBacking) FieldPostings(field, value string) []int {
	c.calls++
	return c.Backing.FieldPostings(field, value)
}

// TestSealDuplicateIDPanics: the tripwire StreamIndex.Add carries for
// retrying pipelines holds on the direct route too, with the same
// message, wherever in the batch the repeat sits.
func TestSealDuplicateIDPanics(t *testing.T) {
	t.Parallel()
	docs := voctest.NewWorld(6, 6).Docs
	batch := append(append([]mining.Document(nil), docs...), docs[2])
	defer func() {
		msg, _ := recover().(string)
		if want := "duplicate document ID " + docs[2].ID + " (an upstream retry delivered the same item twice?)"; !strings.Contains(msg, want) {
			t.Fatalf("Seal over a repeated ID panicked with %q, want a message containing %q", msg, want)
		}
	}()
	mining.Seal(batch)
}

// TestSealBuildsOnce pins what sealing a batch directly is for: the
// StreamIndex route indexes the batch on AddBatch and again on Seal, so
// the direct route must allocate clearly less than it — at most 0.6 of
// its bytes on a publish-sized batch. (Not parallel: it reads the
// process-wide allocation counter.)
func TestSealBuildsOnce(t *testing.T) {
	docs := voctest.NewWorld(3, 1500).Docs
	allocated := func(build func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		build()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	batch := append([]mining.Document(nil), docs...)
	direct := allocated(func() { mining.Seal(batch) })
	stream := allocated(func() {
		si := mining.NewStreamIndex()
		si.AddBatch(docs)
		si.Seal()
	})
	if float64(direct) > 0.6*float64(stream) {
		t.Fatalf("Seal allocated %d bytes, StreamIndex{AddBatch; Seal} %d: more than 0.6 of it", direct, stream)
	}
}

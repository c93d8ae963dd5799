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

// TestDrillDownLimitOutOfOrderIndex pins the fallback: an index built
// by Add in descending-ID order has no position order to stop early on,
// so a limited drill-down must still sort the whole cell — alone, and as
// one segment among ordered ones.
func TestDrillDownLimitOutOfOrderIndex(t *testing.T) {
	t.Parallel()
	w := voctest.NewWorld(77, 120)
	docs := w.DocsByID()
	half := docs[:len(docs)/2]
	reversed := mining.NewIndex()
	for i := len(half) - 1; i >= 0; i-- {
		reversed.Add(half[i])
	}
	reversed.Prepare()
	if reversed.IDOrdered() {
		t.Fatal("an index built in descending-ID order reports ID-ordered positions")
	}
	ordered := voctest.Index(docs[len(docs)/2:])
	ordered.Prepare()
	if !ordered.IDOrdered() {
		t.Fatal("a segment built in ascending-ID order does not report ID-ordered positions")
	}
	voctest.CheckQueriers(t, reversed, voctest.Index(half).Naive(), w)
	voctest.CheckQueriers(t, mining.NewSegmentSet(reversed, ordered), oracle(w), w)
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
	padded := append([]*mining.Index{mining.NewIndex()}, w.Segments(3)...)
	padded = append(padded, mining.NewIndex())
	for _, ix := range padded {
		ix.Prepare()
	}
	voctest.CheckQueriers(t, mining.NewSegmentSet(padded...), oracle(w), w)

	// More segments than documents: the partition's tail is empty.
	few := voctest.NewWorld(10, 5)
	voctest.CheckQueriers(t, mining.NewSegmentSet(few.Segments(8)...), oracle(few), few)
}

// TestSealMatchesStreamIndex is the sealer oracle: whatever order a
// batch arrives in, Seal builds the index StreamIndex{AddBatch; Seal}
// builds — the same documents at the same positions under the same
// postings, positions recorded as ID-ordered, and every query of the
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
		if !got.Prepared() || !got.IDOrdered() {
			t.Fatalf("trial %d: sealed index is not Prepared with ID-ordered positions", trial)
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
// answers the battery as the naive oracle does once Prepared and before,
// and reads nothing of the backing it was copied from afterwards.
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
	got.Prepare()
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

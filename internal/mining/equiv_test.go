package mining_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bivoc/internal/mining"
	"bivoc/internal/voctest"
)

// The naive-vs-fast equivalence suites. The oracle is a value: the
// NaiveIndex view of one monolithic index over a world's documents
// (naive.go's hash-set engine). Every configuration of the fast engine —
// sealed with a cold and a warm conjunction memo, a StreamIndex's view,
// segmented, compacted — is compared with it
// through the one comparator, voctest.CheckQueriers, over the world's
// whole battery. The
// suites live in package mining_test so that they can import the world;
// export_test.go hands them what they need of the internals.

// oracle is the naive view of a monolithic index of its own over the
// world's documents: it shares nothing with the index on trial but them.
func oracle(w *voctest.World) *mining.NaiveIndex { return w.Index().Naive() }

// TestNaiveFastEquivalence is the core property suite: over random
// worlds, the fast path must be indistinguishable from the hash-set
// oracle, on the sealed index (twice, so the conjunction memo is
// exercised on both the miss and the hit path), and on the view of an
// unsealed StreamIndex.
func TestNaiveFastEquivalence(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(20090))
	for trial := 0; trial < 6; trial++ {
		ndocs := 30 + rng.Intn(150)
		seed := rng.Int63()
		t.Run(fmt.Sprintf("world-%d", trial), func(t *testing.T) {
			t.Parallel()
			w := voctest.NewWorld(seed, ndocs)
			ix, naive := w.Index(), oracle(w)
			voctest.CheckQueriers(t, ix, naive, w) // cold memo
			voctest.CheckQueriers(t, ix, naive, w) // warm memo

			live := mining.NewStreamIndex()
			live.AddBatch(w.Docs)
			live.Snapshot(func(ix *mining.Index) { voctest.CheckQueriers(t, ix, naive, w) })
		})
	}
}

// TestOnePassMarginalsMatchPerCell is the association oracle over the
// random worlds: AssocMarginals and RelFreqMarginals, which count a
// segment's cells in one walk of each row (a field's column or the marks
// of the other columns), against the naive view's
// one CountBoth per cell and per concept (CheckQueriers compares both
// extractions on every table of the battery: leaf and conjunction rows
// and columns, a repeated column, no rows, a table wider than the mark
// word, the whole battery squared) — monolithic and segmented with an
// empty segment in the set. It also drives the cell count directly over
// the battery squared, against the naive view's CountBoth per cell, to
// see that it leaves no document marked in the pooled scratch.
func TestOnePassMarginalsMatchPerCell(t *testing.T) {
	t.Parallel()
	if voctest.Wide != mining.MarkBits+1 {
		t.Fatalf("the battery's wide table has %d columns, a mark word %d bits: it no longer spans two mark words", voctest.Wide, mining.MarkBits)
	}
	rng := rand.New(rand.NewSource(20160))
	for trial := 0; trial < 4; trial++ {
		ndocs := 30 + rng.Intn(150)
		seed := rng.Int63()
		t.Run(fmt.Sprintf("world-%d", trial), func(t *testing.T) {
			t.Parallel()
			w := voctest.NewWorld(seed, ndocs)
			ix, naive := w.Index(), oracle(w)
			segs := w.Segments(3)
			set := mining.NewSegmentSet(segs[0], mining.Seal(nil), segs[1], segs[2])

			voctest.CheckQueriers(t, ix, naive, w) // cold, then warm conjunction memo
			voctest.CheckQueriers(t, ix, naive, w)
			voctest.CheckQueriers(t, set, naive, w)

			got, marked := ix.MarkPass(w.Dims)
			want := make([][]int, len(w.Dims))
			for i, a := range w.Dims {
				want[i] = make([]int, len(w.Dims))
				for j, b := range w.Dims {
					want[i][j] = naive.CountBoth(a, b)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("countCells diverges from the naive CountBoth per cell:\n got %v\nwant %v", got, want)
			}
			if marked != 0 {
				t.Fatalf("countCells left %d documents marked", marked)
			}
		})
	}
}

package mining_test

import (
	"testing"

	"bivoc/internal/mining"
	"bivoc/internal/voctest"
)

// FuzzEngineEquivalence is the equivalence suites with the world left to
// the fuzzer: the world of seed with ndocs documents, and every
// configuration of the fast engine — the sealed index with a cold and
// then a warm memo, a SegmentSet of 1
// to 12 segments chosen by k (past the document count the last ones are
// empty), and the single segment MergeSegments compacts them into —
// against the naive view of one monolithic index, through the same
// comparator. Each segmented configuration is checked cold and then
// warm, its conjunctions and tallies memoized, over the world's own
// times and over the world re-timed so that each segment holds a single
// time.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(int64(0), uint8(0), uint8(0))       // the empty corpus
	f.Add(int64(1), uint8(1), uint8(7))       // one document, seven empty segments
	f.Add(int64(20090), uint8(120), uint8(1)) // two segments
	f.Add(int64(20097), uint8(255), uint8(11))
	f.Add(int64(-41), uint8(64), uint8(3))
	f.Add(int64(80081), uint8(9), uint8(8)) // as many segments as documents
	f.Fuzz(func(t *testing.T, seed int64, ndocs, k uint8) {
		w := voctest.NewWorld(seed, int(ndocs))
		naive := oracle(w)
		ix := w.Index()
		voctest.CheckQueriers(t, ix, naive, w)
		voctest.CheckQueriers(t, ix, naive, w)
		nsegs := 1 + int(k)%12
		for _, w := range []*voctest.World{w, w.OneTimePerSegment(nsegs)} {
			naive := oracle(w)
			segs := w.Segments(nsegs)
			for _, q := range []mining.Querier{mining.NewSegmentSet(segs...), mining.MergeSegments(segs...)} {
				voctest.CheckQueriers(t, q, naive, w)
				voctest.CheckQueriers(t, q, naive, w)
			}
		}
	})
}

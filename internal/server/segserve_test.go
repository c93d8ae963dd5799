package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"bivoc/internal/mining"
	"bivoc/internal/voctest"
)

// TestSegmentedServerMatchesMonolithic is the serving-layer half of the
// tentpole oracle: a random world ingested under swap cadences that
// leave 1, 2 and 8 live segments answers every URL of the world's battery
// with exactly the bytes the naive view of one monolithic index renders
// (oracleBodies), with compaction disabled so the segment counts are
// exact.
func TestSegmentedServerMatchesMonolithic(t *testing.T) {
	t.Parallel()
	const total = 80
	w := voctest.NewWorld(20212, total)

	for _, segs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("segments-%d", segs), func(t *testing.T) {
			t.Parallel()
			s := startServer(t, Config{Source: sliceSource(w.Docs), SwapEvery: total / segs, MaxSegments: -1})
			waitIngestDone(t, s)
			segDocs, compactions := s.SegmentInfo()
			if len(segDocs) != segs || compactions != 0 {
				t.Fatalf("segment layout = %v (compactions %d), want %d segments, none compacted", segDocs, compactions, segs)
			}
			compareAll(t, "segmented daemon vs naive oracle",
				oracleBodies(t, w.Docs, s.Generation(), w.URLs()), fetchAll(t, "http://"+s.Addr(), w.URLs()))
		})
	}
}

// TestCompactionBoundsSegmentsAndPreservesAnswers pins the background
// compactor: past MaxSegments the segment count comes back under the
// bound, the served generation does not move (compaction is invisible),
// and every URL of the world's battery still draws the bytes the
// monolithic naive oracle renders.
func TestCompactionBoundsSegmentsAndPreservesAnswers(t *testing.T) {
	t.Parallel()
	const total, maxSegs = 80, 3
	w := voctest.NewWorld(20213, total)
	docs := w.Docs

	s := startServer(t, Config{Source: sliceSource(docs), SwapEvery: 10, MaxSegments: maxSegs})
	waitIngestDone(t, s)
	genAfterSeal := s.Generation()

	deadline := time.Now().Add(5 * time.Second)
	for {
		segDocs, compactions := s.SegmentInfo()
		if len(segDocs) <= maxSegs && compactions > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("compactor never bounded the segment list: %v (compactions %d)", segDocs, compactions)
		}
		time.Sleep(time.Millisecond)
	}
	if gen := s.Generation(); gen != genAfterSeal {
		t.Errorf("compaction moved the generation %d → %d; it must republish in place", genAfterSeal, gen)
	}
	docsTotal := 0
	segDocs, _ := s.SegmentInfo()
	for _, n := range segDocs {
		docsTotal += n
	}
	if docsTotal != total {
		t.Errorf("compacted segments hold %d docs (%v), want %d", docsTotal, segDocs, total)
	}
	compareAll(t, "compacted daemon vs naive oracle",
		oracleBodies(t, docs, s.Generation(), w.URLs()), fetchAll(t, "http://"+s.Addr(), w.URLs()))

	var statsz StatszResponse
	getOK(t, "http://"+s.Addr()+"/statsz", &statsz)
	if statsz.Segments.Count != len(segDocs) || statsz.Segments.MaxSegments != maxSegs || statsz.Segments.Compactions == 0 {
		t.Errorf("statsz segments section = %+v, want count %d under bound %d with compactions > 0",
			statsz.Segments, len(segDocs), maxSegs)
	}
}

// TestSmallestSegments pins the compaction's choice of victims: the k
// segments with the fewest documents, a tie going to the older segment,
// returned ascending by index.
func TestSmallestSegments(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name  string
		sizes []int
		k     int
		want  []int
	}{
		{"ties go to the older segment", []int{5, 3, 3, 7, 3}, 2, []int{1, 2}},
		{"a tie across the cut", []int{4, 2, 9, 4, 4}, 3, []int{0, 1, 3}},
		{"k is the segment count", []int{8, 1, 6}, 3, []int{0, 1, 2}},
		{"all sizes equal", []int{2, 2, 2, 2}, 2, []int{0, 1}},
		{"sorted ascending, not by size", []int{9, 6, 1, 8, 2}, 3, []int{1, 2, 4}},
	} {
		segs := make([]segment, len(tc.sizes))
		next := 0
		for i, n := range tc.sizes {
			docs := make([]mining.Document, n)
			for j := range docs {
				docs[j] = voctest.ParityDoc(next)
				next++
			}
			segs[i] = segment{ix: mining.Seal(docs)}
		}
		if got := smallestSegments(segs, tc.k); !slices.Equal(got, tc.want) {
			t.Errorf("%s: smallestSegments(%v, %d) = %v, want %v", tc.name, tc.sizes, tc.k, got, tc.want)
		}
	}
}

// TestWarmRestartSwapEveryCadence is the satellite-1 regression: after
// a warm restart over a persisted corpus, SwapEvery must count newly
// ingested documents only. The old accumulator counted recovered docs
// too, so a restart over 50 durable docs with SwapEvery=20 would fire
// at the 10th new doc (60 % 20 == 0) instead of the 20th.
func TestWarmRestartSwapEveryCadence(t *testing.T) {
	dir := t.TempDir()
	docs := voctest.ParityDocs(70)

	st1 := openStore(t, dir)
	s1 := startServer(t, Config{Source: sliceSource(docs[:50]), Persist: st1})
	waitIngestDone(t, s1)
	shutdownNow(t, s1)

	feed := make(chan mining.Document)
	src := func(ctx context.Context, already func(string) bool, emit func(mining.Document) error) error {
		for d := range feed {
			if already(d.ID) {
				continue
			}
			if err := emit(d); err != nil {
				return err
			}
		}
		return nil
	}
	st2 := openStore(t, dir)
	s2 := startServer(t, Config{Source: src, SwapEvery: 20, Persist: st2})
	if gen, n, _ := s2.SnapshotInfo(); gen != 0 || n != 50 {
		t.Fatalf("warm snapshot = gen %d with %d docs, want gen 0 with 50", gen, n)
	}

	// 10 new docs (plus replays of recovered ones, which must not count
	// either): under the old len(docs) keying this lands on 60 % 20 == 0
	// and fires a spurious swap.
	for _, d := range docs[40:60] {
		feed <- d
	}
	time.Sleep(50 * time.Millisecond) // a wrong swap would land synchronously; give it slack
	if gen := s2.Generation(); gen != 0 {
		t.Fatalf("swap fired after 10 new docs (gen %d): cadence is counting recovered documents", gen)
	}

	// 10 more makes 20 newly ingested — now the cadence fires.
	for _, d := range docs[60:70] {
		feed <- d
	}
	deadline := time.Now().Add(5 * time.Second)
	for s2.Generation() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("swap did not fire at 20 newly ingested docs")
		}
		time.Sleep(time.Millisecond)
	}
	if gen, n, _ := s2.SnapshotInfo(); gen != 1 || n != 70 {
		t.Fatalf("post-swap snapshot = gen %d with %d docs, want gen 1 with 70", gen, n)
	}
	close(feed)
	waitIngestDone(t, s2)
}

// shutdownNow shuts a startServer-started server down immediately (the
// registered cleanup then becomes a harmless double-shutdown error,
// so do it manually and unregister via fresh Shutdown semantics).
func shutdownNow(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestHealthzDegradedOnPersistFailure is the satellite-2 regression: a
// persistence failure must flip /healthz to "degraded" with the error
// in the body — the daemon stays up (200) but operators see that
// durability is gone.
func TestHealthzDegradedOnPersistFailure(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Every AppendWAL on the closed store fails, setting PersistErr.
	s := startServer(t, Config{Source: sliceSource(voctest.ParityDocs(10)), Persist: st})
	waitIngestDone(t, s)
	if s.PersistErr() == nil {
		t.Fatal("closed store did not surface a persistence error")
	}
	var health HealthResponse
	status, body := get(t, "http://"+s.Addr()+"/healthz")
	if status != 200 {
		t.Fatalf("/healthz status %d, want 200 (degraded, not dead)", status)
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" || health.PersistError == "" {
		t.Errorf("/healthz = %+v, want status degraded with persist_error set", health)
	}
}

// TestRespondCounterReconciliation is the satellite-3 regression:
// every request through respond is exactly one hit or one miss — error
// responses included — and a body that will not marshal, the one way a
// miss can fail, is a 500 that leaves nothing in the cache.
func TestRespondCounterReconciliation(t *testing.T) {
	s, err := New(Config{Source: sliceSource(nil)})
	if err != nil {
		t.Fatal(err)
	}
	requests := 0
	do := func(key string, v any) int {
		rec := httptest.NewRecorder()
		s.respond(rec, nil, key, func(*snapshot) ([]byte, error) { return marshalBody(v) })
		requests++
		return rec.Code
	}

	if code := do("ok", map[string]int{"x": 1}); code != 200 {
		t.Fatalf("successful compute: status %d", code)
	}
	if code := do("ok", map[string]int{"x": 1}); code != 200 {
		t.Fatalf("cached compute: status %d", code)
	}
	if code := do("boom", make(chan int)); code != 500 {
		t.Errorf("unmarshalable body: status %d, want 500", code)
	}
	// A failed miss must not poison the cache: the retry recomputes
	// (another miss), and a subsequent success is cacheable.
	if code := do("boom", map[string]int{"x": 2}); code != 200 {
		t.Errorf("retry after error: status %d", code)
	}
	hits, misses := s.CacheStats()
	if int(hits+misses) != requests {
		t.Errorf("hits(%d)+misses(%d) = %d, want %d: every request is exactly one hit or miss", hits, misses, hits+misses, requests)
	}
	if hits != 1 || misses != 3 {
		t.Errorf("hits=%d misses=%d, want 1/3 (one cached repeat; errors count as misses)", hits, misses)
	}
}

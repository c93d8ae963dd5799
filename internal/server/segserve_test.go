package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"
	"time"

	"bivoc/internal/mining"
)

// segQueries exercises every /v1 endpoint family (both /v1/concepts
// modes included) against the testDoc corpus.
func segQueries() []string {
	return []string{
		"/v1/count?" + url.Values{"dim": {"parity=even", "parity=odd", "topic", "austin[place]"}}.Encode(),
		"/v1/associate?" + url.Values{"row": {"billing[topic]", "coverage[topic]", "roadside[topic]"}, "col": {"outcome=reservation", "outcome=unbooked", "outcome=service"}}.Encode(),
		"/v1/associate?" + url.Values{"row": {"topic"}, "col": {"parity=odd"}, "confidence": {"0.99"}}.Encode(),
		"/v1/relfreq?" + url.Values{"category": {"topic"}, "featured": {"outcome=reservation"}}.Encode(),
		"/v1/drilldown?" + url.Values{"row": {"austin[place]"}, "col": {"outcome=service"}}.Encode(),
		"/v1/trend?" + url.Values{"dim": {"billing[topic]"}}.Encode(),
		"/v1/concepts?category=topic",
		"/v1/concepts?field=outcome",
	}
}

// normalizeBody strips the snapshot-identity fields (generation,
// sealed) so servers that reached the same corpus through different
// swap cadences can be compared; everything else — including float
// formatting, which Go re-renders identically through a decode/encode
// round trip — must match.
func normalizeBody(t *testing.T, body []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("unmarshal %s: %v", body, err)
	}
	delete(m, "generation")
	delete(m, "sealed")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSegmentedServerMatchesMonolithic is the serving-layer half of the
// tentpole oracle: the same corpus ingested under swap cadences that
// leave 1, 2 and 8 live segments answers every endpoint identically to
// a single-segment (monolithic) server, with compaction disabled so the
// segment counts are exact.
func TestSegmentedServerMatchesMonolithic(t *testing.T) {
	const total = 80
	docs := testDocs(total)

	mono := startServer(t, Config{Source: sliceSource(docs), MaxSegments: -1})
	waitIngestDone(t, mono)
	want := make(map[string][]byte)
	for _, q := range segQueries() {
		_, body := get(t, "http://"+mono.Addr()+q)
		want[q] = normalizeBody(t, body)
	}

	for _, segs := range []int{1, 2, 8} {
		segs := segs
		t.Run(fmt.Sprintf("segments-%d", segs), func(t *testing.T) {
			s := startServer(t, Config{Source: sliceSource(docs), SwapEvery: total / segs, MaxSegments: -1})
			waitIngestDone(t, s)
			segDocs, compactions := s.SegmentInfo()
			if len(segDocs) != segs || compactions != 0 {
				t.Fatalf("segment layout = %v (compactions %d), want %d segments, none compacted", segDocs, compactions, segs)
			}
			for _, q := range segQueries() {
				status, body := get(t, "http://"+s.Addr()+q)
				if status != 200 {
					t.Fatalf("GET %s: status %d: %s", q, status, body)
				}
				if got := normalizeBody(t, body); !reflect.DeepEqual(got, want[q]) {
					t.Errorf("GET %s diverges from monolithic:\n got %s\nwant %s", q, got, want[q])
				}
			}
		})
	}
}

// TestCompactionBoundsSegmentsAndPreservesAnswers pins the background
// compactor: past MaxSegments the segment count comes back under the
// bound, the served generation does not move (compaction is invisible),
// and every endpoint still answers byte-identically to the monolithic
// baseline.
func TestCompactionBoundsSegmentsAndPreservesAnswers(t *testing.T) {
	const total, maxSegs = 80, 3
	docs := testDocs(total)

	mono := startServer(t, Config{Source: sliceSource(docs), MaxSegments: -1})
	waitIngestDone(t, mono)

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
	for _, q := range segQueries() {
		_, monoBody := get(t, "http://"+mono.Addr()+q)
		_, segBody := get(t, "http://"+s.Addr()+q)
		if !reflect.DeepEqual(normalizeBody(t, segBody), normalizeBody(t, monoBody)) {
			t.Errorf("GET %s diverges after compaction", q)
		}
	}

	var statsz StatszResponse
	getOK(t, "http://"+s.Addr()+"/statsz", &statsz)
	if statsz.Segments.Count != len(segDocs) || statsz.Segments.MaxSegments != maxSegs || statsz.Segments.Compactions == 0 {
		t.Errorf("statsz segments section = %+v, want count %d under bound %d with compactions > 0",
			statsz.Segments, len(segDocs), maxSegs)
	}
}

// TestWarmRestartSwapEveryCadence is the satellite-1 regression: after
// a warm restart over a persisted corpus, SwapEvery must count newly
// ingested documents only. The old accumulator counted recovered docs
// too, so a restart over 50 durable docs with SwapEvery=20 would fire
// at the 10th new doc (60 % 20 == 0) instead of the 20th.
func TestWarmRestartSwapEveryCadence(t *testing.T) {
	dir := t.TempDir()
	docs := testDocs(70)

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
	s := startServer(t, Config{Source: sliceSource(testDocs(10)), Persist: st})
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

package server

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"bivoc/internal/mining"
	"bivoc/internal/store"
	"bivoc/internal/voctest"
)

// TestCompactedRecoveryIsCollected restarts a daemon over a three-segment
// data directory, ingests past it with a segment bound of one, and
// requires every recovered index to be garbage once the compactor has
// merged it away: the store hands its Recovery to the server and keeps
// no reference of its own. Under MapSegments the mappings stay open until
// Close by design, but the *mining.Index over each (and the columns and
// memos it prepared) must go.
func TestCompactedRecoveryIsCollected(t *testing.T) {
	docs := voctest.ParityDocs(120)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := st.AppendSegment(mining.Seal(docs[30*i : 30*(i+1)])); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		opts store.Options
	}{{"eager", store.Options{}}, {"mmap", store.Options{MapSegments: true}}} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := store.Open(copyStoreDir(t, dir), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(Config{Source: resumableSource(docs, nil), Persist: st, SwapEvery: 10, MaxSegments: 1})
			if err != nil {
				t.Fatal(err)
			}
			recovered := map[uint64]bool{}
			var freed atomic.Int32
			for _, seg := range s.segs {
				recovered[seg.diskGen] = true
				runtime.SetFinalizer(seg.ix, func(*mining.Index) { freed.Add(1) })
			}
			if len(recovered) != 3 {
				t.Fatalf("recovered %d segments, want 3", len(recovered))
			}
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			defer shutdownServer(t, s)
			waitIngestDone(t, s)

			deadline := time.Now().Add(10 * time.Second)
			for !compactedAway(s, recovered) {
				if time.Now().After(deadline) {
					t.Fatal("the compactor never merged the recovered segments away")
				}
				time.Sleep(10 * time.Millisecond)
			}
			for freed.Load() < 3 {
				if time.Now().After(deadline) {
					t.Fatalf("%d of 3 recovered indexes collected after compaction: something still holds the recovery", freed.Load())
				}
				runtime.GC()
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// compactedAway reports whether none of the recovered generations is
// live in s any more.
func compactedAway(s *Server, recovered map[uint64]bool) bool {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	for _, seg := range s.segs {
		if recovered[seg.diskGen] {
			return false
		}
	}
	return true
}

// TestWarmStartReleasesSkipSet: the durable-ID skip set a warm start
// builds (one map entry per recovered document) is what the source is
// filtered by, and nothing after the source returns needs it, so the
// server holds it only until then.
func TestWarmStartReleasesSkipSet(t *testing.T) {
	docs := voctest.ParityDocs(60)
	dir := t.TempDir()
	st := openStore(t, dir)
	if _, err := st.AppendSegment(mining.Seal(docs[:40])); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	var emitted atomic.Int64
	s, err := New(Config{Source: resumableSource(docs, &emitted), Persist: openStore(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.recIDs) != 40 {
		t.Fatalf("warm start built a skip set of %d IDs, want 40", len(s.recIDs))
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, s)
	waitIngestDone(t, s)
	if got := emitted.Load(); got != 20 {
		t.Errorf("the source emitted %d documents, want the 20 the segment lacks", got)
	}
	if s.recIDs != nil {
		t.Errorf("the server still holds a skip set of %d IDs after ingest", len(s.recIDs))
	}
}

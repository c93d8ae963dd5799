package server

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"bivoc/internal/mining"
	"bivoc/internal/store"
	"bivoc/internal/voctest"
)

// Byte-identity acceptance suite for mmap-backed serving: a daemon
// recovering its corpus through mapped segments must answer every /v1
// endpoint with exactly the bytes a materialized daemon serves, which are
// the bytes the naive oracle renders in the test process — and keep doing
// so across a compaction that swaps the merged heap index for a mapped
// view of the freshly written segment.

func openMappedStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{MapSegments: true})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// copyStoreDir clones a store directory so a second daemon can open it
// concurrently — two daemons can never share one live WAL.
func copyStoreDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			t.Fatalf("store dir unexpectedly contains a subdirectory %q", e.Name())
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// sealCorpus ingests docs through a persisted daemon and returns the
// store directory holding the sealed segment, plus the baseline bodies.
func sealCorpus(t *testing.T, docs []mining.Document, queries []string) (string, map[string][]byte) {
	t.Helper()
	dir := t.TempDir()
	s := startServer(t, Config{Source: resumableSource(docs, nil), Persist: openStore(t, dir)})
	waitIngestDone(t, s)
	want := fetchAll(t, "http://"+s.Addr(), queries)
	shutdownServer(t, s)
	return dir, want
}

// TestMappedDaemonServesIdenticalBytes boots a materialized and a
// mapped daemon over copies of the same sealed corpus and requires
// every endpoint body to match the original run byte for byte, and every
// /v1 body of all three to be what Plan.Local renders over the naive view
// of one monolithic index of the documents (oracleBodies) — on the parity
// corpus and on a random world with its whole URL battery. Caching is
// disabled so every request really recomputes.
func TestMappedDaemonServesIdenticalBytes(t *testing.T) {
	t.Parallel()
	random := voctest.NewWorld(20211, 150)
	for _, tc := range []struct {
		name    string
		docs    []mining.Document
		queries []string
	}{
		{"parity corpus", voctest.ParityDocs(150), persistQueries()},
		{"random world", random.Docs, append(random.URLs(), "/healthz")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			docs, queries := tc.docs, tc.queries
			dir, want := sealCorpus(t, docs, queries)

			mat := startServer(t, Config{
				Source:    resumableSource(docs, nil),
				Persist:   openStore(t, copyStoreDir(t, dir)),
				CacheSize: -1,
			})
			mapSt := openMappedStore(t, copyStoreDir(t, dir))
			mapped := startServer(t, Config{
				Source:    resumableSource(docs, nil),
				Persist:   mapSt,
				CacheSize: -1,
			})
			waitIngestDone(t, mat)
			waitIngestDone(t, mapped)

			if st := mapSt.Stats(); st.MappedSegments < 1 {
				t.Fatalf("mapped daemon recovered without mapping: %+v", st)
			}

			matBase, mapBase := "http://"+mat.Addr(), "http://"+mapped.Addr()
			got := fetchAll(t, mapBase, queries)
			compareAll(t, "mapped vs seed run", want, got)
			compareAll(t, "mapped vs materialized", fetchAll(t, matBase, queries), got)

			oracle := oracleBodies(t, docs, mapped.Generation(), queries)
			if len(oracle) != len(queries)-1 {
				t.Fatalf("the oracle rendered %d of %d queries", len(oracle), len(queries))
			}
			compareAll(t, "mapped vs naive oracle", oracle, got)
			compareAll(t, "heap seed run vs naive oracle", oracle, want)

			shutdownServer(t, mat)
			shutdownServer(t, mapped)
		})
	}
}

// TestMappedStatszSections pins the observability added with mapped
// serving: every daemon reports a process memory section, and a mapped
// daemon's store section carries mapped-segment and postings-cache
// counters (which a materialized daemon omits).
func TestMappedStatszSections(t *testing.T) {
	docs := voctest.ParityDocs(60)
	queries := persistQueries()
	dir, _ := sealCorpus(t, docs, queries)

	s := startServer(t, Config{
		Source:  resumableSource(docs, nil),
		Persist: openMappedStore(t, dir),
	})
	waitIngestDone(t, s)
	base := "http://" + s.Addr()
	fetchAll(t, base, queries) // touch postings so the cache has traffic

	var sz StatszResponse
	getOK(t, base+"/statsz", &sz)
	if sz.Memory.HeapAllocBytes == 0 || sz.Memory.HeapInuseBytes == 0 {
		t.Errorf("memory section empty: %+v", sz.Memory)
	}
	if sz.Store == nil {
		t.Fatal("statsz missing the store section")
	}
	if sz.Store.MappedSegments < 1 || sz.Store.MappedBytes <= 0 {
		t.Errorf("store section shows no mappings: %+v", sz.Store)
	}
	if sz.Memory.MappedBytes != sz.Store.MappedBytes {
		t.Errorf("memory.mapped_bytes %d != store.mapped_bytes %d", sz.Memory.MappedBytes, sz.Store.MappedBytes)
	}
	if pc := sz.Store.PostingsCache; pc == nil {
		t.Error("store section missing postings_cache")
	} else if pc.Budget <= 0 || pc.Hits+pc.Misses == 0 {
		t.Errorf("postings cache saw no traffic: %+v", pc)
	}
	if sz.Store.OpenMicros <= 0 {
		t.Errorf("open_us = %d, want > 0", sz.Store.OpenMicros)
	}
	shutdownServer(t, s)

	// A materialized daemon reports memory but no mapping counters.
	plain := startServer(t, Config{Source: sliceSource(voctest.ParityDocs(10))})
	waitIngestDone(t, plain)
	var psz StatszResponse
	getOK(t, "http://"+plain.Addr()+"/statsz", &psz)
	if psz.Memory.HeapAllocBytes == 0 {
		t.Errorf("plain daemon memory section empty: %+v", psz.Memory)
	}
	if psz.Memory.MappedBytes != 0 {
		t.Errorf("plain daemon reports %d mapped bytes", psz.Memory.MappedBytes)
	}
}

// mappedGens lists the disk generations of s's live segments that are
// served from a file mapping.
func mappedGens(s *Server) []uint64 {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	var gens []uint64
	for _, seg := range s.segs {
		if _, ok := seg.ix.Backing().(*store.Mapped); ok {
			gens = append(gens, seg.diskGen)
		}
	}
	return gens
}

// TestMappedDaemonCompactionIdentical drives both daemons through
// fresh ingest with a tight segment bound so the compactor runs, and
// requires the bytes to keep matching after the mapped daemon has
// swapped its merged heap index for a mapped view of the compacted
// segment — which it does because its store maps, while its heap twin,
// over a store that does not, never maps anything.
func TestMappedDaemonCompactionIdentical(t *testing.T) {
	t.Parallel()
	seed := voctest.ParityDocs(150)
	all := voctest.ParityDocs(300) // same first 150 IDs; the suffix is fresh ingest
	queries := persistQueries()
	dir, _ := sealCorpus(t, seed, queries)

	const maxSegs = 3
	cfg := func(st *store.Store) Config {
		return Config{
			Source:      resumableSource(all, nil),
			Persist:     st,
			SwapEvery:   25,
			MaxSegments: maxSegs,
		}
	}
	matSt := openStore(t, copyStoreDir(t, dir))
	mat := startServer(t, cfg(matSt))
	mapSt := openMappedStore(t, copyStoreDir(t, dir))
	// The live lineage at open is what a store over the same files
	// recovers; the server takes mapSt's Recovery itself.
	recovered := map[uint64]bool{}
	probe := openStore(t, copyStoreDir(t, dir))
	for _, seg := range probe.Recovered().Segments {
		recovered[seg.Gen] = true
	}
	if err := probe.Close(); err != nil {
		t.Fatal(err)
	}
	mapped := startServer(t, cfg(mapSt))
	waitIngestDone(t, mat)
	waitIngestDone(t, mapped)

	// The compactor is asynchronous; wait for both daemons to come back
	// under the segment bound with at least one compaction behind them.
	for _, s := range []*Server{mat, mapped} {
		deadline := time.Now().Add(10 * time.Second)
		for {
			segDocs, compactions := s.SegmentInfo()
			if len(segDocs) <= maxSegs && compactions > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("compactor never bounded the segments: %v (compactions %d)", segDocs, compactions)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// The mapped daemon must now be serving at least one segment from a
	// mapping of a compaction's output: a generation it did not recover
	// (the recovered ones open mapped without any remap).
	remapped := false
	for _, gen := range mappedGens(mapped) {
		remapped = remapped || !recovered[gen]
	}
	if !remapped {
		t.Fatalf("no compaction output is served mapped: mapped generations %v, recovered %v", mappedGens(mapped), recovered)
	}
	if gens, st := mappedGens(mat), matSt.Stats(); len(gens) > 0 || st.MappedSegments > 0 {
		t.Fatalf("heap daemon maps generations %v (store counts %d)", gens, st.MappedSegments)
	}

	compareAll(t, "across compaction",
		fetchAll(t, "http://"+mat.Addr(), queries),
		fetchAll(t, "http://"+mapped.Addr(), queries))

	shutdownServer(t, mat)
	shutdownServer(t, mapped)
}

// countingBacking counts the full record decodes a query makes.
type countingBacking struct {
	mining.Backing
	decoded *atomic.Int64
}

func (b countingBacking) Doc(i int) mining.Document {
	b.decoded.Add(1)
	return b.Backing.Doc(i)
}

// TestMappedDrillDownDecodesLimit is the drill-down oracle over mapped
// segments: at every limit the limit-aware path over a mapped
// SegmentSet returns the heap set's unlimited cell truncated to limit
// with the same count — and decodes at most limit records per segment to
// do it, where the whole-cell path decoded every match.
func TestMappedDrillDownDecodesLimit(t *testing.T) {
	t.Parallel()
	docs := voctest.ParityDocs(240)
	dir := t.TempDir()
	const nsegs = 3
	var heap, mapped []*mining.Index
	decoded := make([]*atomic.Int64, nsegs)
	for k := 0; k < nsegs; k++ {
		seg := voctest.Index(docs[k*len(docs)/nsegs : (k+1)*len(docs)/nsegs])
		path := filepath.Join(dir, fmt.Sprintf("seg-%d.seg", k))
		if err := os.WriteFile(path, store.EncodeSegment(seg), 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := store.OpenMapped(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		decoded[k] = new(atomic.Int64)
		ix := mining.FromBacking(countingBacking{Backing: m, decoded: decoded[k]})
		heap, mapped = append(heap, seg), append(mapped, ix)
	}
	heapSet, mappedSet := mining.NewSegmentSet(heap...), mining.NewSegmentSet(mapped...)

	topic := mining.ConceptDim("topic", "billing")
	outcome := mining.FieldDim("outcome", "reservation")
	parity := mining.FieldDim("parity", "even")
	pairs := [][2]mining.Dim{
		{topic, outcome},
		{mining.AndDim(topic, parity), outcome}, // a conjunction as the row
		{outcome, mining.AndDim(topic, parity)}, // and as the column
	}
	for _, pair := range pairs {
		cell := heapSet.DrillDown(pair[0], pair[1])
		if len(cell) < 6 {
			t.Fatalf("cell %s × %s holds %d documents — too few to truncate", pair[0].Label(), pair[1].Label(), len(cell))
		}
		for _, limit := range []int{0, 1, 5, 50, len(cell), len(cell) + 1} {
			for _, d := range decoded {
				d.Store(0)
			}
			got, count := mappedSet.DrillDownLimit(pair[0], pair[1], limit)
			want := cell[:min(limit, len(cell))]
			if count != len(cell) || len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("mapped DrillDownLimit(%s, %s, %d) = %d docs of %d, want the first %d of %d",
					pair[0].Label(), pair[1].Label(), limit, len(got), count, len(want), len(cell))
			}
			for k, d := range decoded {
				if n := d.Load(); n > int64(limit) {
					t.Errorf("limit %d decoded %d records of segment %d", limit, n, k)
				}
			}
		}
	}
}

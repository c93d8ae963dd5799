package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bivoc/internal/mining"
	"bivoc/internal/voctest"
	"bivoc/internal/wire"
)

// writeSegFile encodes ix and writes it where a test wants it.
func writeSegFile(t *testing.T, path string, ix *mining.Index) []byte {
	t.Helper()
	data := EncodeSegment(ix)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return data
}

// TestMappedSegmentEquivalence pins the tentpole invariant at the store
// layer: an index served from a mapped segment answers every query of the
// battery exactly as the naive oracle over the documents the segment was
// written from, and re-encodes to the identical bytes.
func TestMappedSegmentEquivalence(t *testing.T) {
	t.Parallel()
	w := voctest.NewWorld(21, 200)
	ix := sealedIndex(w.Docs)
	path := filepath.Join(t.TempDir(), "seg.seg")
	data := writeSegFile(t, path, ix)

	m, err := OpenMapped(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	mapped := mining.FromBacking(m)
	mapped.Prepare()

	naive := w.Index().Naive()
	voctest.CheckQueriers(t, mapped, naive, w) // cold postings cache and memo
	voctest.CheckQueriers(t, mapped, naive, w) // warm
	if err := m.Err(); err != nil {
		t.Fatalf("sticky error after clean queries: %v", err)
	}

	// Per-document accessors agree with the materialized docs.
	for i := 0; i < ix.Len(); i++ {
		if want := voctest.AsStored([]mining.Document{ix.Doc(i)})[0]; !reflect.DeepEqual(mapped.Doc(i), want) {
			t.Fatalf("Doc(%d) diverges", i)
		}
		if mapped.DocID(i) != ix.Doc(i).ID || m.DocTime(i) != ix.Doc(i).Time {
			t.Fatalf("DocID/DocTime(%d) diverge", i)
		}
	}

	// The mapped backing re-encodes byte-identically: a compaction that
	// re-encodes a mapped segment loses nothing.
	re := EncodeSegment(mapped)
	if !reflect.DeepEqual(re, data) {
		t.Fatal("mapped re-encode is not byte-identical to the original segment")
	}
}

// TestMappedOracleEquivalence holds the mapped backing to the oracle
// without the sealed-index caches: an index over the mapping that was
// never Prepared answers by scanning the backing's vocabulary and
// decoding postings on every touch, and must still say what the naive
// view of the heap index says. So must the naive view taken over the
// mapping itself (Index.Naive reads whatever backing the index has) —
// the mapped reader under an engine that shares no access pattern with
// the fast path.
func TestMappedOracleEquivalence(t *testing.T) {
	t.Parallel()
	w := voctest.NewWorld(22, 150)
	path := filepath.Join(t.TempDir(), "seg.seg")
	writeSegFile(t, path, sealedIndex(w.Docs))
	m, err := OpenMapped(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	naive := w.Index().Naive()
	voctest.CheckQueriers(t, mining.FromBacking(m), naive, w)
	voctest.CheckQueriers(t, mining.FromBacking(m).Naive(), naive, w)
	if err := m.Err(); err != nil {
		t.Fatalf("sticky error after clean queries: %v", err)
	}
}

// TestMappedSegmentsOfOneTime holds a set of mapped segments, each
// holding documents of a single time, to the oracle: every segment's
// per-document time column has one bucket, and the trends of the set are
// the merge of those. Compacted into one mapped segment, the same.
func TestMappedSegmentsOfOneTime(t *testing.T) {
	t.Parallel()
	const k = 3
	w := voctest.NewWorld(30, 150).OneTimePerSegment(k)
	naive := w.Index().Naive()
	dir := t.TempDir()
	open := func(name string, ix *mining.Index) *mining.Index {
		path := filepath.Join(dir, name)
		writeSegFile(t, path, ix)
		m, err := OpenMapped(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		mapped := mining.FromBacking(m)
		mapped.Prepare()
		return mapped
	}
	var segs []*mining.Index
	for i, seg := range w.Segments(k) {
		segs = append(segs, open(fmt.Sprintf("seg-%d.seg", i), seg))
	}
	voctest.CheckQueriers(t, mining.NewSegmentSet(segs...), naive, w)
	voctest.CheckQueriers(t, open("merged.seg", mining.MergeSegments(segs...)), naive, w)
}

// TestOpenMappedRejectsDamage mirrors TestSegmentDecodeRejectsDamage
// for the mapped open path: truncations and bit flips anywhere die at
// the envelope, before any lazy read could serve them.
func TestOpenMappedRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	good := EncodeSegment(sealedIndex(voctest.NewWorld(23, 60).Docs))
	check := func(name string, data []byte) {
		t.Helper()
		path := filepath.Join(dir, name+".seg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if m, err := OpenMapped(path, nil); err == nil {
			m.Close()
			t.Errorf("%s: mapped open accepted damaged segment", name)
		} else if !IsCorrupt(err) {
			t.Errorf("%s: error does not satisfy IsCorrupt: %v", name, err)
		}
	}
	check("empty", nil)
	check("magic-only", good[:4])
	check("truncated-half", good[:len(good)/2])
	check("truncated-one", good[:len(good)-1])
	for _, off := range []int{0, 5, segHeaderLen + 3, len(good) / 2, len(good) - 5} {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x40
		check(fmt.Sprintf("flip-%d", off), bad)
	}
}

// TestOpenMappedRejectsLegacy builds a version-1 file (no directory)
// out of a version-2 segment's body. Nothing writes that format any
// more and nothing reads it: the materializing open and the mapped
// reader both refuse it with IsCorrupt, and a recovery that finds one in
// its lineage skips it like any other damaged generation.
func TestOpenMappedRejectsLegacy(t *testing.T) {
	ix := sealedIndex(voctest.NewWorld(24, 40).Docs)
	v2 := EncodeSegment(ix)
	env, err := checkEnvelope(v2)
	if err != nil {
		t.Fatal(err)
	}
	const legacyVersion = 1
	var v1 []byte
	v1 = append(v1, segMagic[:]...)
	v1 = binary.LittleEndian.AppendUint32(v1, legacyVersion)
	v1 = append(v1, v2[segHeaderLen:env.bodyEnd]...) // body without directory
	bodyLen := uint64(len(v1) - segHeaderLen)
	crc := crc32.ChecksumIEEE(v1)
	v1 = binary.LittleEndian.AppendUint64(v1, bodyLen)
	v1 = binary.LittleEndian.AppendUint64(v1, uint64(ix.Len()))
	v1 = binary.LittleEndian.AppendUint32(v1, legacyVersion)
	v1 = binary.LittleEndian.AppendUint32(v1, crc)

	rejected := func(reader string, err error) {
		t.Helper()
		switch {
		case err == nil:
			t.Fatalf("%s accepted a version-1 segment", reader)
		case !IsCorrupt(err):
			t.Fatalf("%s: legacy rejection is not IsCorrupt: %v", reader, err)
		case !strings.Contains(err.Error(), "unsupported segment version 1"):
			t.Fatalf("%s rejected the file for another reason: %v", reader, err)
		}
	}
	_, err = materialize("v1", v1)
	rejected("materializing open", err)

	// Put the file where a lineage expects generation 1.
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stat, err := st.AppendSegment(ix)
	if err != nil {
		t.Fatal(err)
	}
	path := st.segmentPath(stat.SegmentGen)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path, nil)
	if err == nil {
		m.Close()
	}
	rejected("mapped reader", err)

	for _, mapSegs := range []bool{false, true} {
		st, err := Open(dir, Options{MapSegments: mapSegs})
		if err != nil {
			t.Fatalf("MapSegments=%v: %v", mapSegs, err)
		}
		rec := st.Recovered()
		if len(rec.Segments) != 0 || len(rec.SkippedSegments) != 1 || rec.SkippedSegments[0] != filepath.Base(path) {
			t.Errorf("MapSegments=%v: recovered %d segments, skipped %v; want the version-1 file skipped",
				mapSegs, len(rec.Segments), rec.SkippedSegments)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreMappedRecovery: a store opened with MapSegments serves its
// recovered lineage from mappings — same answers, stats reporting the
// mapped set — and a corrupted segment is skipped for the WAL tail,
// never served.
func TestStoreMappedRecovery(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	w := voctest.NewWorld(25, 120)
	docs := w.Docs
	ix := sealedIndex(docs)

	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if err := st.AppendWAL(d); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.ReplaceSegments(nil, ix); err != nil {
		t.Fatal(err)
	}
	// No ResetWAL: the WAL still covers the same documents, so recovery
	// must dedup across the mapped segment.
	st.Close()

	st2, err := Open(dir, Options{MapSegments: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := st2.Recovered()
	recovered := soleSegment(t, rec)
	if len(rec.WALDocs) != 0 {
		t.Fatalf("mapped recovery: wal=%d", len(rec.WALDocs))
	}
	if _, ok := recovered.Backing().(*Mapped); !ok {
		t.Fatalf("recovered index backing is %T, want *Mapped", recovered.Backing())
	}
	voctest.CheckQueriers(t, recovered, w.Index().Naive(), w)
	voctest.CheckQueriers(t, recovered, w.Index().Naive(), w) // again, from the postings cache
	stats := st2.Stats()
	if stats.MappedSegments != 1 || stats.MappedBytes <= 0 {
		t.Fatalf("stats: %d mapped segments, %d bytes", stats.MappedSegments, stats.MappedBytes)
	}
	if stats.PostingsCache.Budget != DefaultPostingsBudget {
		t.Fatalf("postings cache budget %d", stats.PostingsCache.Budget)
	}
	if stats.PostingsCache.Hits == 0 || stats.PostingsCache.Bytes == 0 {
		t.Fatalf("query battery left no cache footprint: %+v", stats.PostingsCache)
	}
	st2.Close()

	// Corrupt the only segment: mapped open and materializing loader
	// both reject it, and recovery falls through to the WAL tail.
	seg := st2.Stats().SegmentPath
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 1
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st3, err := Open(dir, Options{MapSegments: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	rec3 := st3.Recovered()
	if len(rec3.Segments) != 0 || len(rec3.SkippedSegments) == 0 {
		t.Fatalf("damaged segment not skipped: segments=%d skipped=%v", len(rec3.Segments), rec3.SkippedSegments)
	}
	if len(rec3.WALDocs) != len(docs) {
		t.Fatalf("WAL fallback recovered %d docs, want %d", len(rec3.WALDocs), len(docs))
	}
}

// TestStoreMapSegmentRemap drives the compaction handoff: append two
// segments, replace them with a merged one, remap the new generation,
// and require the mapping to answer exactly as the merged index.
func TestStoreMapSegmentRemap(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	w := voctest.NewWorld(26, 150)
	docsA, docsB := w.Docs[:60], w.Docs[60:]
	st, err := Open(dir, Options{MapSegments: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ixA, ixB := sealedIndex(docsA), sealedIndex(docsB)
	if _, err := st.AppendSegment(ixA); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendSegment(ixB); err != nil {
		t.Fatal(err)
	}
	merged := mining.MergeSegments(ixA, ixB)
	stats, err := st.ReplaceSegments([]uint64{1, 2}, merged)
	if err != nil {
		t.Fatal(err)
	}
	remapped, err := st.MapSegment(stats.SegmentGen)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := remapped.Backing().(*Mapped); !ok {
		t.Fatalf("remapped backing is %T", remapped.Backing())
	}
	voctest.CheckQueriers(t, remapped, w.Index().Naive(), w)
	if got := st.Stats(); got.MappedSegments != 1 {
		t.Fatalf("stats after remap: %d mapped segments", got.MappedSegments)
	}
	// A dead generation cannot be remapped.
	if _, err := st.MapSegment(1); err == nil {
		t.Fatal("MapSegment accepted a superseded generation")
	}
}

// TestPostingsCacheBudget exercises eviction, the canonical-copy rule,
// and the hit/miss counters.
func TestPostingsCacheBudget(t *testing.T) {
	c := NewPostingsCache(3 * (8*100 + postEntryOverhead)) // room for 3 hundred-entry lists
	mk := func(n int) []int {
		posts := make([]int, n)
		for i := range posts {
			posts[i] = i
		}
		return posts
	}
	for i := 0; i < 5; i++ {
		c.put(postKey{seg: 1, off: uint32(i)}, mk(100))
	}
	st := c.StatsSnapshot()
	if st.Entries != 3 {
		t.Fatalf("entries after over-budget puts: %d, want 3", st.Entries)
	}
	if st.Bytes > st.Budget {
		t.Fatalf("bytes %d exceed budget %d", st.Bytes, st.Budget)
	}
	// Oldest two were evicted, newest three hit.
	for i := 0; i < 2; i++ {
		if _, ok := c.get(postKey{seg: 1, off: uint32(i)}); ok {
			t.Fatalf("entry %d survived eviction", i)
		}
	}
	for i := 2; i < 5; i++ {
		if _, ok := c.get(postKey{seg: 1, off: uint32(i)}); !ok {
			t.Fatalf("entry %d missing", i)
		}
	}
	st = c.StatsSnapshot()
	if st.Hits != 3 || st.Misses != 2 {
		t.Fatalf("hits/misses = %d/%d, want 3/2", st.Hits, st.Misses)
	}
	// Racing puts converge on the first copy.
	first := mk(10)
	if got := c.put(postKey{seg: 2, off: 0}, first); &got[0] != &first[0] {
		t.Fatal("first put did not return the caller's slice")
	}
	second := mk(10)
	if got := c.put(postKey{seg: 2, off: 0}, second); &got[0] != &first[0] {
		t.Fatal("second put did not converge on the cached copy")
	}
	// A list larger than the whole budget is served but not retained.
	huge := mk(10_000)
	if got := c.put(postKey{seg: 3, off: 0}, huge); &got[0] != &huge[0] {
		t.Fatal("over-budget put did not serve the decoded slice")
	}
	if _, ok := c.get(postKey{seg: 3, off: 0}); ok {
		t.Fatal("over-budget list was retained")
	}
}

// TestMappedHotQueryAllocs pins the steady-state promise: once the hot
// set is decoded, repeated counts over a mapped index stay on the
// cache path (hits, no new decoded bytes).
func TestMappedHotQueryAllocs(t *testing.T) {
	w := voctest.NewWorld(28, 300)
	path := filepath.Join(t.TempDir(), "seg.seg")
	writeSegFile(t, path, sealedIndex(w.Docs))
	cache := NewPostingsCache(0)
	m, err := OpenMapped(path, cache)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	mapped := mining.FromBacking(m)
	mapped.Prepare()

	dim := w.Dims[11]           // a conjunction of two leaves
	if mapped.Count(dim) == 0 { // warm: decodes + conjunction memo
		t.Fatalf("%s matches nothing in this world", dim.Label())
	}
	before := cache.StatsSnapshot()
	for i := 0; i < 50; i++ {
		mapped.Count(dim)
	}
	after := cache.StatsSnapshot()
	if after.Bytes != before.Bytes || after.Entries != before.Entries {
		t.Fatalf("hot queries grew the cache: %+v -> %+v", before, after)
	}
	if after.Misses != before.Misses {
		t.Fatalf("hot queries missed the cache: %+v -> %+v", before, after)
	}
}

// TestStoreReportsMappingFailure: a lazy decode that fails on a live
// mapping makes that mapping answer empty from then on, so the store
// must say so — first error kept, still readable after Close — and a
// mapped store that has served every read cleanly must say nothing.
func TestStoreReportsMappingFailure(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	w := voctest.NewWorld(29, 80)
	ix := sealedIndex(w.Docs)
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.ReplaceSegments(nil, ix); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{MapSegments: true})
	if err != nil {
		t.Fatal(err)
	}
	recovered := soleSegment(t, st2.Recovered())
	voctest.CheckQueriers(t, recovered, w.Index().Naive(), w)
	if err := st2.Err(); err != nil {
		t.Fatalf("clean mapped store reports %v", err)
	}

	m := recovered.Backing().(*Mapped)
	m.fail(errors.New("first"))
	m.fail(errors.New("second"))
	err = st2.Err()
	if err == nil || !IsCorrupt(err) || !strings.Contains(err.Error(), "first") {
		t.Fatalf("store reports %v, want the mapping's first failure", err)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	if after := st2.Err(); after == nil || after.Error() != err.Error() {
		t.Fatalf("after Close the store reports %v, want %v", after, err)
	}
}

// TestDamagedGenerationUnderEitherLoader pins what recovery makes of a
// damaged generation, per loader. Both open through the one segment
// reader: a file that fails the envelope, or whose directory does not
// resolve or repeats a key, is skipped and named under both, and the two
// differ, on purpose, only for a file whose checksum holds over a record
// or list that does not decode — the eager loader reads everything and
// skips it, the lazy one adopts it and reports through Store.Err on
// first touch.
func TestDamagedGenerationUnderEitherLoader(t *testing.T) {
	t.Parallel()
	docs := voctest.NewWorld(3, 60).Docs
	const damagedGen = 2
	resum := func(data []byte) []byte {
		binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-segFooterLen]))
		return data
	}
	envelope := func(data []byte) segEnvelope {
		env, err := checkEnvelope(data)
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	all, rest := []uint64{1, 2, 3}, []uint64{1, 3}
	for _, tc := range []struct {
		name          string
		damage        func(data []byte) []byte // nil: the file is gone
		eager, mapped []uint64                 // generations recovered
	}{
		{"intact", func(data []byte) []byte { return data }, all, all},
		{"bit flipped", func(data []byte) []byte { data[len(data)/2] ^= 0x10; return data }, rest, rest},
		{"cut in half", func(data []byte) []byte { return data[:len(data)/2] }, rest, rest},
		{"emptied", func(data []byte) []byte { return nil }, rest, rest},
		{"missing", nil, rest, rest},
		{"directory entry damaged, checksum repaired", func(data []byte) []byte {
			env := envelope(data)
			firstList := env.dirStart + 4*(env.nStrs+env.nDocs)
			binary.LittleEndian.PutUint32(data[firstList:], math.MaxUint32) // a key no string table holds
			return resum(data)
		}, rest, rest},
		{"document record damaged, checksum repaired", func(data []byte) []byte {
			env := envelope(data)
			firstDoc := binary.LittleEndian.Uint32(data[env.dirStart+4*env.nStrs:])
			for i := range wire.MaxVarintLen + 1 { // no varint is this long
				data[int(firstDoc)+i] = 0xFF
			}
			return resum(data)
		}, rest, all},
		{"directory repeats a key, checksum repaired", func(data []byte) []byte {
			env := envelope(data)
			firstList := env.dirStart + 4*(env.nStrs+env.nDocs)
			copy(data[firstList+dirEntryLen:][:8], data[firstList:][:8]) // the second concept takes the first's key
			return resum(data)
		}, rest, rest},
		{"first postings delta zeroed, checksum repaired", func(data []byte) []byte {
			env := envelope(data)
			firstList := env.dirStart + 4*(env.nStrs+env.nDocs)
			r := wire.ReaderAt(data, int(binary.LittleEndian.Uint32(data[firstList+8:])))
			r.Count(1)              // the list's length
			data[r.Offset()] = 0x00 // its first delta, one byte at this size
			return resum(data)
		}, rest, all},
	} {
		dir := t.TempDir()
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, ix := range segmentBatches(docs, 20) {
			if _, err := st.AppendSegment(ix); err != nil {
				t.Fatal(err)
			}
		}
		path := st.segmentPath(damagedGen)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if tc.damage == nil {
			err = os.Remove(path)
		} else if data, rerr := os.ReadFile(path); rerr != nil {
			err = rerr
		} else {
			err = os.WriteFile(path, tc.damage(data), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, mapSegs := range []bool{false, true} {
			want := tc.eager
			if mapSegs {
				want = tc.mapped
			}
			st, err := Open(dir, Options{MapSegments: mapSegs})
			if err != nil {
				t.Fatalf("%s, MapSegments=%v: %v", tc.name, mapSegs, err)
			}
			rec := st.Recovered()
			var got []uint64
			var damaged *mining.Index
			for _, seg := range rec.Segments {
				got = append(got, seg.Gen)
				if seg.Gen == damagedGen {
					damaged = seg.Index
				}
			}
			var skipped []string
			if damaged == nil {
				skipped = []string{filepath.Base(path)}
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(rec.SkippedSegments, skipped) {
				t.Errorf("%s, MapSegments=%v: recovered generations %v skipping %v, want %v skipping %v",
					tc.name, mapSegs, got, rec.SkippedSegments, want, skipped)
			}
			if err := st.Err(); err != nil {
				t.Errorf("%s, MapSegments=%v: Err() = %v before anything was read", tc.name, mapSegs, err)
			}
			if damaged != nil && len(tc.eager) < len(tc.mapped) {
				listsOf(damaged.Backing())
				for i := range damaged.Len() {
					damaged.Doc(i)
				}
				if err := st.Err(); !IsCorrupt(err) {
					t.Errorf("%s: Err() = %v after the damaged segment was read, want corruption", tc.name, err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

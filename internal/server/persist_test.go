package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net/url"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"bivoc/internal/mining"
	"bivoc/internal/store"
	"bivoc/internal/voctest"
)

// resumableSource is a persistence-aware sliceSource: it honors the
// `already` skip set the way core.NewServeServer's pipeline source does,
// and counts how many documents it actually emitted — the warm-restart
// tests assert that recovered documents never re-enter the pipeline.
func resumableSource(docs []mining.Document, emitted *atomic.Int64) DocSource {
	return func(ctx context.Context, already func(string) bool, emit func(mining.Document) error) error {
		for _, d := range docs {
			if already != nil && already(d.ID) {
				continue
			}
			if emitted != nil {
				emitted.Add(1)
			}
			if err := emit(d); err != nil {
				return err
			}
		}
		return nil
	}
}

// faultSource emits the first n documents and then fails — the
// fault-injection hook standing in for a daemon killed mid-stream. The
// accepted prefix is in the WAL; nothing was sealed.
var errInjected = errors.New("injected mid-ingest fault")

func faultSource(docs []mining.Document, n int) DocSource {
	return func(ctx context.Context, already func(string) bool, emit func(mining.Document) error) error {
		for _, d := range docs[:n] {
			if already != nil && already(d.ID) {
				continue
			}
			if err := emit(d); err != nil {
				return err
			}
		}
		return errInjected
	}
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// persistQueries is the endpoint battery the byte-identity tests fetch
// from every server incarnation: all six /v1 query endpoints plus
// /healthz (statsz is compared field-wise, not byte-wise, since cache
// counters and store paths legitimately differ across runs).
func persistQueries() []string {
	topic := mining.ConceptDim("topic", "billing")
	outcome := mining.FieldDim("outcome", "reservation")
	both := mining.AndDim(topic, outcome)
	return []string{
		"/v1/count?" + url.Values{"dim": {topic.Label(), outcome.Label(), both.Label()}}.Encode(),
		"/v1/associate?" + url.Values{
			"row": {topic.Label(), mining.ConceptDim("topic", "coverage").Label()},
			"col": {outcome.Label(), mining.FieldDim("outcome", "unbooked").Label()},
		}.Encode(),
		"/v1/relfreq?" + url.Values{"category": {"topic"}, "featured": {outcome.Label()}}.Encode(),
		"/v1/drilldown?" + url.Values{"row": {topic.Label()}, "col": {outcome.Label()}, "limit": {"5"}}.Encode(),
		"/v1/trend?" + url.Values{"dim": {topic.Label()}}.Encode(),
		"/v1/concepts?category=topic",
		"/v1/concepts?field=outcome",
		"/healthz",
	}
}

func fetchAll(t *testing.T, base string, queries []string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, len(queries))
	for _, q := range queries {
		status, body := get(t, base+q)
		if status != 200 {
			t.Fatalf("GET %s: status %d, body %s", q, status, body)
		}
		out[q] = body
	}
	return out
}

func compareAll(t *testing.T, label string, want, got map[string][]byte) {
	t.Helper()
	for q, w := range want {
		if g, ok := got[q]; !ok || !bytes.Equal(w, g) {
			t.Errorf("%s: %s drifted:\n want %s\n got  %s", label, q, w, g)
		}
	}
}

// TestPersistSealWritesSegmentAndResetsWAL covers the durability
// protocol of a clean run: every ingested document is WAL-appended, the
// seal writes a checksummed segment, and the WAL — now fully covered by
// the segment — is reset.
func TestPersistSealWritesSegmentAndResetsWAL(t *testing.T) {
	dir := t.TempDir()
	docs := voctest.ParityDocs(90)
	st := openStore(t, dir)
	s := startServer(t, Config{Source: resumableSource(docs, nil), Persist: st})
	waitIngestDone(t, s)

	if err := s.PersistErr(); err != nil {
		t.Fatalf("persistence error on a clean run: %v", err)
	}
	stats := st.Stats()
	if stats.SegmentGen != 1 || stats.SegmentDocs != len(docs) {
		t.Errorf("segment gen=%d docs=%d, want gen 1 over %d docs", stats.SegmentGen, stats.SegmentDocs, len(docs))
	}
	if stats.WALRecords != 0 {
		t.Errorf("WAL holds %d records after the seal, want 0 (reset)", stats.WALRecords)
	}
	if stats.LastSealUnixMS == 0 {
		t.Error("LastSealUnixMS not stamped by the seal-time segment write")
	}
	if fi, err := os.Stat(stats.SegmentPath); err != nil || fi.Size() != stats.SegmentBytes {
		t.Errorf("segment file mismatch: stat=%v err=%v, stats say %d bytes", fi, err, stats.SegmentBytes)
	}

	// The segment on disk must decode to the served index, byte for byte.
	m, err := store.OpenMapped(stats.SegmentPath, nil)
	if err != nil {
		t.Fatalf("opening the just-written segment: %v", err)
	}
	defer m.Close()
	ix := mining.FromBacking(m)
	want := voctest.Index(docs)
	if ix.Len() != want.Len() {
		t.Fatalf("segment decoded to %d docs, want %d", ix.Len(), want.Len())
	}
	for i := 0; i < ix.Len(); i++ {
		if fmt.Sprint(ix.Doc(i)) != fmt.Sprint(want.Doc(i)) {
			t.Fatalf("doc %d drifted through the segment round trip", i)
		}
	}
}

// TestPersistWarmRestartServesIdenticalBytes is the headline warm-start
// guarantee: restart over a sealed corpus, the source re-emits nothing
// (the skip set short-circuits it), the segment-loaded index is
// republished via the no-rebuild fast path, and every endpoint answers
// byte-identically to the original in-memory run.
func TestPersistWarmRestartServesIdenticalBytes(t *testing.T) {
	dir := t.TempDir()
	docs := voctest.ParityDocs(120)
	queries := persistQueries()

	st1 := openStore(t, dir)
	s1 := startServer(t, Config{Source: resumableSource(docs, nil), Persist: st1})
	waitIngestDone(t, s1)
	want := fetchAll(t, "http://"+s1.Addr(), queries)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("first shutdown: %v", err)
	}

	var emitted atomic.Int64
	st2 := openStore(t, dir)
	// The source waits at a gate, so that "before ingest has done anything"
	// is a state the test holds rather than a race it usually wins.
	gate, src := make(chan struct{}), resumableSource(docs, &emitted)
	s2 := startServer(t, Config{Persist: st2, Source: func(ctx context.Context, already func(string) bool, emit func(mining.Document) error) error {
		select {
		case <-gate:
		case <-ctx.Done():
			return ctx.Err()
		}
		return src(ctx, already, emit)
	}})

	// Before ingest has done anything, the recovered snapshot already
	// serves the full corpus at generation zero.
	if gen, n, _ := s2.SnapshotInfo(); gen != 0 || n != len(docs) {
		t.Errorf("pre-ingest recovered snapshot gen=%d docs=%d, want gen 0 over %d docs", gen, n, len(docs))
	}
	close(gate)
	waitIngestDone(t, s2)

	if got := emitted.Load(); got != 0 {
		t.Errorf("warm restart re-emitted %d documents through the pipeline, want 0", got)
	}
	segDocs, walDocs, walDropped := s2.RecoveryInfo()
	if segDocs != len(docs) || walDocs != 0 || walDropped != 0 {
		t.Errorf("RecoveryInfo = (%d, %d, %d), want (%d, 0, 0)", segDocs, walDocs, walDropped, len(docs))
	}
	compareAll(t, "warm restart", want, fetchAll(t, "http://"+s2.Addr(), queries))

	// The fast path must not have written a redundant new segment.
	if stats := st2.Stats(); stats.SegmentGen != 1 {
		t.Errorf("warm restart advanced the segment to gen %d, want to keep gen 1", stats.SegmentGen)
	}
}

// TestPersistCrashMidIngestRecovers is the crash-recovery acceptance
// test: ingest dies mid-stream (fault injection), the accepted prefix
// survives in the WAL, and a restart with a healthy source completes the
// corpus — byte-identical to a run that never crashed. A third boot then
// recovers purely from the segment.
func TestPersistCrashMidIngestRecovers(t *testing.T) {
	const crashAt, total = 37, 110
	dir := t.TempDir()
	docs := voctest.ParityDocs(total)
	queries := persistQueries()

	// Control: same corpus, no persistence, no crash.
	ctl := startServer(t, Config{Source: resumableSource(docs, nil)})
	waitIngestDone(t, ctl)
	want := fetchAll(t, "http://"+ctl.Addr(), queries)

	// Run 1: dies after 37 documents. No seal, no segment — only the WAL.
	st1 := openStore(t, dir)
	s1 := startServer(t, Config{Source: faultSource(docs, crashAt), Persist: st1})
	waitIngestDone(t, s1)
	if err := s1.IngestErr(); !errors.Is(err, errInjected) {
		t.Fatalf("ingest error = %v, want the injected fault", err)
	}
	if _, _, sealed := s1.SnapshotInfo(); sealed {
		t.Fatal("crashed run published a sealed snapshot")
	}
	if stats := st1.Stats(); stats.WALRecords != crashAt || stats.SegmentGen != 0 {
		t.Fatalf("post-crash store: %d WAL records, segment gen %d; want %d and 0", stats.WALRecords, stats.SegmentGen, crashAt)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("post-crash shutdown: %v", err)
	}

	// Run 2: recovery replays the WAL tail, ingest resumes at document 37
	// and completes the stream; the seal writes the first segment.
	var emitted atomic.Int64
	st2 := openStore(t, dir)
	s2 := startServer(t, Config{Source: resumableSource(docs, &emitted), Persist: st2})
	if segDocs, walDocs, _ := s2.RecoveryInfo(); segDocs != 0 || walDocs != crashAt {
		t.Fatalf("recovery = %d segment docs + %d WAL docs, want none + %d", segDocs, walDocs, crashAt)
	}
	waitIngestDone(t, s2)
	if got := emitted.Load(); got != total-crashAt {
		t.Errorf("resumed run re-emitted %d documents, want %d (the un-persisted suffix)", got, total-crashAt)
	}
	compareAll(t, "recovered run", want, fetchAll(t, "http://"+s2.Addr(), queries))
	if stats := st2.Stats(); stats.SegmentGen != 1 || stats.WALRecords != 0 {
		t.Errorf("post-recovery store: segment gen %d, %d WAL records; want 1 and 0", stats.SegmentGen, stats.WALRecords)
	}
	if err := s2.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}

	// Run 3: clean warm start from the segment written by run 2.
	st3 := openStore(t, dir)
	s3 := startServer(t, Config{Source: resumableSource(docs, nil), Persist: st3})
	waitIngestDone(t, s3)
	segDocs, walDocs, _ := s3.RecoveryInfo()
	if segDocs != total || walDocs != 0 {
		t.Errorf("third boot recovered (%d, %d), want (%d, 0)", segDocs, walDocs, total)
	}
	compareAll(t, "segment warm start", want, fetchAll(t, "http://"+s3.Addr(), queries))
}

// TestPersistStatszStoreSection pins the /statsz persistence section:
// absent without a store, and carrying segment/WAL/recovery state with
// one.
func TestPersistStatszStoreSection(t *testing.T) {
	plain := startServer(t, Config{Source: sliceSource(voctest.ParityDocs(10))})
	waitIngestDone(t, plain)
	var noStore StatszResponse
	getOK(t, "http://"+plain.Addr()+"/statsz", &noStore)
	if noStore.Store != nil {
		t.Errorf("statsz grew a store section without persistence: %+v", noStore.Store)
	}

	dir := t.TempDir()
	docs := voctest.ParityDocs(60)
	st := openStore(t, dir)
	s := startServer(t, Config{Source: resumableSource(docs, nil), Persist: st})
	waitIngestDone(t, s)
	var got StatszResponse
	getOK(t, "http://"+s.Addr()+"/statsz", &got)
	ss := got.Store
	if ss == nil {
		t.Fatal("statsz store section missing with persistence configured")
	}
	if ss.SegmentGen != 1 || ss.SegmentDocs != len(docs) {
		t.Errorf("store section segment gen=%d docs=%d, want 1/%d", ss.SegmentGen, ss.SegmentDocs, len(docs))
	}
	if ss.WALRecords != 0 || ss.WALBytes <= 0 {
		t.Errorf("store section WAL records=%d bytes=%d, want 0 records and a header-sized file", ss.WALRecords, ss.WALBytes)
	}
	if ss.LastSealUnixMS <= 0 {
		t.Errorf("store section last_seal_unix_ms = %d, want a recent wall time", ss.LastSealUnixMS)
	}
	if ss.SegmentPath == "" || filepath.Dir(ss.SegmentPath) != dir {
		t.Errorf("store section segment path %q not under %q", ss.SegmentPath, dir)
	}
	if ss.PersistError != "" {
		t.Errorf("store section reports persist error %q on a clean run", ss.PersistError)
	}
	if ss.RecoveredSegmentDocs != 0 || ss.RecoveredWALDocs != 0 {
		t.Errorf("cold start reports recovered docs (%d, %d)", ss.RecoveredSegmentDocs, ss.RecoveredWALDocs)
	}
}

// TestPersistWALAppendedBeforeSeal checks that in-flight documents are
// WAL-durable before any seal: a channel-fed source parks mid-stream and
// the WAL already holds everything accepted so far.
func TestPersistWALAppendedBeforeSeal(t *testing.T) {
	dir := t.TempDir()
	docs := voctest.ParityDocs(30)
	feed := make(chan mining.Document)
	src := func(ctx context.Context, _ func(string) bool, emit func(mining.Document) error) error {
		for d := range feed {
			if err := emit(d); err != nil {
				return err
			}
		}
		return nil
	}
	st := openStore(t, dir)
	s := startServer(t, Config{Source: src, Persist: st})
	for _, d := range docs[:12] {
		feed <- d
	}
	// The 12th append runs on the ingest goroutine after the channel send
	// returns; wait for it to land before asserting.
	deadline := time.Now().Add(5 * time.Second)
	for st.Stats().WALRecords < 12 {
		if time.Now().After(deadline) {
			t.Fatalf("WAL never reached 12 records (at %d)", st.Stats().WALRecords)
		}
		time.Sleep(time.Millisecond)
	}
	if stats := st.Stats(); stats.WALRecords != 12 || stats.SegmentGen != 0 {
		t.Errorf("mid-stream store: %d WAL records, segment gen %d; want 12 and 0", stats.WALRecords, stats.SegmentGen)
	}
	for _, d := range docs[12:] {
		feed <- d
	}
	close(feed)
	waitIngestDone(t, s)
	if stats := st.Stats(); stats.WALRecords != 0 || stats.SegmentDocs != len(docs) {
		t.Errorf("post-seal store: %d WAL records, %d segment docs; want 0 and %d", stats.WALRecords, stats.SegmentDocs, len(docs))
	}
}

// TestPersistErrorDegradesNotKills wires a store whose data directory
// vanishes mid-run: the WAL append fails, the daemon keeps serving from
// RAM, and /statsz surfaces the persistence error.
func TestPersistErrorDegradesNotKills(t *testing.T) {
	dir := t.TempDir()
	docs := voctest.ParityDocs(40)
	st := openStore(t, dir)
	// Close the store's WAL behind the server's back: every AppendWAL
	// from now on fails the way a dead disk would.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	s := startServer(t, Config{Source: resumableSource(docs, nil), Persist: st})
	waitIngestDone(t, s)

	if err := s.PersistErr(); err == nil {
		t.Fatal("no persistence error surfaced from a closed store")
	}
	// Serving is unharmed: the sealed snapshot still answers.
	var got CountResponse
	getOK(t, "http://"+s.Addr()+"/v1/count?"+url.Values{"dim": {"parity=even"}}.Encode(), &got)
	if !got.Sealed || got.Total != len(docs) {
		t.Errorf("degraded daemon served %+v, want sealed total %d", got, len(docs))
	}
	var stz StatszResponse
	getOK(t, "http://"+s.Addr()+"/statsz", &stz)
	if stz.Store == nil || stz.Store.PersistError == "" {
		t.Errorf("statsz does not surface the persistence error: %+v", stz.Store)
	}
}

// TestRefusedSegmentComesBackFromTheSource: a segment the reader refuses
// is not lost. Here the newest of three generations holds its documents
// out of ID order under a checksum that holds, which the segment reader
// refuses at open like any damaged file. Recovery skips it and names it,
// its IDs stay out of the skip set, and the source delivers those
// documents again: after ingest the daemon, eager or mapped, answers the
// world's whole battery byte for byte as a daemon that never stopped.
func TestRefusedSegmentComesBackFromTheSource(t *testing.T) {
	t.Parallel()
	w := voctest.NewWorld(4049, 150)
	queries := w.URLs()
	ctl := startServer(t, Config{Source: resumableSource(w.Docs, nil)})
	waitIngestDone(t, ctl)
	want := fetchAll(t, "http://"+ctl.Addr(), queries)

	dir := t.TempDir()
	st := openStore(t, dir)
	segs := w.Segments(3)
	for _, ix := range segs {
		if _, err := st.AppendSegment(ix); err != nil {
			t.Fatal(err)
		}
	}
	newest := st.Stats().SegmentPath
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	// Swap the first two entries of the per-document offset directory
	// (trailer: directory start, string count, ... — 24 bytes before the
	// 24-byte footer) and repair the checksum that ends the footer.
	le := binary.LittleEndian
	trailer := len(data) - 48
	docOffs := int(le.Uint32(data[trailer:])) + 4*int(le.Uint32(data[trailer+4:]))
	first, second := le.Uint32(data[docOffs:]), le.Uint32(data[docOffs+4:])
	le.PutUint32(data[docOffs:], second)
	le.PutUint32(data[docOffs+4:], first)
	le.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-24]))
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, mapSegs := range []bool{false, true} {
		st, err := store.Open(copyStoreDir(t, dir), store.Options{MapSegments: mapSegs})
		if err != nil {
			t.Fatal(err)
		}
		var emitted atomic.Int64
		s := startServer(t, Config{Source: resumableSource(w.Docs, &emitted), Persist: st})
		var statsz StatszResponse
		getOK(t, "http://"+s.Addr()+"/statsz", &statsz)
		if sk := statsz.Store.SkippedSegments; len(sk) != 1 || sk[0] != filepath.Base(newest) {
			t.Errorf("mmap=%v: recovery skipped %q, want [%q]", mapSegs, sk, filepath.Base(newest))
		}
		waitIngestDone(t, s)
		if got, refused := emitted.Load(), int64(segs[2].Len()); got != refused {
			t.Errorf("mmap=%v: the source delivered %d documents again, want the refused segment's %d", mapSegs, got, refused)
		}
		compareAll(t, fmt.Sprintf("mmap=%v", mapSegs), want, fetchAll(t, "http://"+s.Addr(), queries))
		shutdownServer(t, s)
	}
}

// TestFailedSegmentWriteKeepsTheWAL: a segment write that fails leaves
// its documents in RAM only. The daemon keeps serving, /healthz says
// degraded with the store's error, and the seal syncs the WAL instead of
// resetting it — the WAL is the only durable copy of those documents — so
// a restart recovers them from it and answers byte for byte as a daemon
// that never failed.
func TestFailedSegmentWriteKeepsTheWAL(t *testing.T) {
	docs := voctest.ParityDocs(80)
	queries := persistQueries()
	ctl := startServer(t, Config{Source: resumableSource(docs, nil)})
	waitIngestDone(t, ctl)
	want := fetchAll(t, "http://"+ctl.Addr(), queries)

	dir := t.TempDir()
	st := openStore(t, dir)
	// A non-empty directory where the first segment's temp file goes: the
	// seal's segment write fails, and its cleanup cannot remove it.
	blocker := filepath.Join(dir, "seg-0000000000000001.seg.tmp")
	if err := os.MkdirAll(filepath.Join(blocker, "in-the-way"), 0o755); err != nil {
		t.Fatal(err)
	}
	s := startServer(t, Config{Source: resumableSource(docs, nil), Persist: st})
	waitIngestDone(t, s)
	var health HealthResponse
	getOK(t, "http://"+s.Addr()+"/healthz", &health)
	if health.Status != "degraded" || health.PersistError == "" || health.Docs != len(docs) {
		t.Errorf("/healthz after a failed segment write = %+v, want degraded over %d docs", health, len(docs))
	}
	if stats := st.Stats(); stats.SegmentGen != 0 || stats.WALRecords != len(docs) {
		t.Errorf("store after the seal: segment gen %d, %d WAL records; want 0 and %d (synced, not reset)",
			stats.SegmentGen, stats.WALRecords, len(docs))
	}
	shutdownServer(t, s)
	if err := os.RemoveAll(blocker); err != nil {
		t.Fatal(err)
	}

	var emitted atomic.Int64
	st2 := openStore(t, dir)
	s2 := startServer(t, Config{Source: resumableSource(docs, &emitted), Persist: st2})
	waitIngestDone(t, s2)
	if segDocs, walDocs, _ := s2.RecoveryInfo(); segDocs != 0 || walDocs != len(docs) {
		t.Errorf("restart recovered %d segment + %d WAL docs, want 0 + %d", segDocs, walDocs, len(docs))
	}
	if got := emitted.Load(); got != 0 {
		t.Errorf("restart re-emitted %d documents, want 0", got)
	}
	compareAll(t, "restart after a failed segment write", want, fetchAll(t, "http://"+s2.Addr(), queries))
	if stats := st2.Stats(); stats.SegmentGen != 1 || stats.WALRecords != 0 {
		t.Errorf("store after the restart's seal: segment gen %d, %d WAL records; want 1 and 0", stats.SegmentGen, stats.WALRecords)
	}
}

package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bivoc/internal/mining"
)

// Options configures a Store.
type Options struct {
	// SyncEvery fsyncs the WAL after every Nth appended document. 1 (and
	// the default 0) syncs every append — nothing acknowledged is ever
	// lost; larger values amortize the fsync at the cost of a bounded
	// window of documents that may need re-ingesting after a crash.
	SyncEvery int
	// MapSegments reads segments with mmap(2) instead of read(2) — one
	// reader parses them either way — and serves them straight out of
	// the read-only mappings (OpenMapped) instead of materializing them:
	// recovery touches O(#postings lists) per segment instead of
	// O(corpus), and resident memory tracks the hot query set rather
	// than the corpus. A damaged generation is skipped under either
	// loader and named in Stats.SkippedSegments; a file that is sound
	// and will not mmap fails Open. The mapped segments share one
	// decoded-postings cache of DefaultPostingsBudget bytes.
	MapSegments bool
}

func (o Options) syncEvery() int {
	if o.SyncEvery < 1 {
		return 1
	}
	return o.SyncEvery
}

// RecoveredSegment is one live segment Open loaded from disk, query-ready.
type RecoveredSegment struct {
	Gen   uint64
	Index *mining.Index
}

// Recovery is what Open reconstructed from the data directory for the
// caller to adopt: the live segments named by the manifest (ready to be
// published and queried immediately) and the WAL tail of documents
// ingested after they were written, deduplicated against them. What the
// open found besides is in Stats.
type Recovery struct {
	// Segments are the recovered live segments, ascending by generation.
	Segments []RecoveredSegment
	// WALDocs are the intact WAL records not already in the segment, in
	// append order.
	WALDocs []mining.Document
}

// IDs returns the set of durable document IDs — the ingest skip set
// for warm restarts.
func (r *Recovery) IDs() map[string]bool {
	n := len(r.WALDocs)
	for _, seg := range r.Segments {
		n += seg.Index.Len()
	}
	ids := make(map[string]bool, n)
	for _, seg := range r.Segments {
		for i := 0; i < seg.Index.Len(); i++ {
			ids[seg.Index.DocID(i)] = true
		}
	}
	for _, d := range r.WALDocs {
		ids[d.ID] = true
	}
	return ids
}

// Stats is the store's state, and /statsz's store section as it is
// published: the JSON names and their order are what dashboards read.
// The Segment* fields describe the newest live segment, but SegmentDocs,
// which is the total across the lineage.
type Stats struct {
	SegmentGen   uint64 `json:"segment_generation"`
	SegmentPath  string `json:"segment_path,omitempty"`
	SegmentBytes int64  `json:"segment_bytes"`
	SegmentDocs  int    `json:"segment_docs"`
	WALRecords   int    `json:"wal_records"`
	WALBytes     int64  `json:"wal_bytes"`
	// LastSealUnixMS is the wall time the current segment was written by
	// this process (0 for segments inherited from an earlier run).
	LastSealUnixMS int64 `json:"last_seal_unix_ms,omitempty"`
	// Recovered* describe what Open found: documents in the live
	// segments it loaded, documents replayed from the WAL tail, torn-tail
	// bytes dropped — documents inside the fsync window when the process
	// died, which ingest re-processes; SkippedSegments names the segment
	// files it passed over as damaged.
	RecoveredSegmentDocs int      `json:"recovered_segment_docs"`
	RecoveredWALDocs     int      `json:"recovered_wal_docs"`
	RecoveredWALDropped  int64    `json:"recovered_wal_dropped_bytes,omitempty"`
	SkippedSegments      []string `json:"skipped_segments,omitempty"`
	// PersistError is Err's message.
	PersistError string `json:"persist_error,omitempty"`
	// Mapped-segment serving (zero unless the store was opened with
	// MapSegments): how many live segments are served from mappings,
	// their total mapped bytes, the decoded-postings cache (nil unless
	// the store maps), and how long Open spent bringing the lineage up —
	// the number that should stay O(#lists) as the corpus grows.
	MappedSegments int                 `json:"mapped_segments,omitempty"`
	MappedBytes    int64               `json:"mapped_bytes,omitempty"`
	PostingsCache  *PostingsCacheStats `json:"postings_cache,omitempty"`
	OpenMicros     int64               `json:"open_us,omitempty"`
}

// segMeta is the in-memory record of one live segment file.
type segMeta struct {
	gen    uint64
	path   string
	bytes  int64
	docs   int
	mapped *Mapped // non-nil when this generation is served from a mapping
}

// Store is one data directory: the live segment lineage (named by the
// MANIFEST file) plus the ingest WAL. WAL appends and stats reads are
// safe for concurrent use; calls of the segment mutator (ReplaceSegments,
// and AppendSegment, its no-removal case) must be serialized by the
// caller — the serving layer holds its publish lock across them.
type Store struct {
	dir       string
	syncEvery int
	mapSegs   bool
	cache     *PostingsCache // decoded-postings LRU shared by mappings; nil unless MapSegments

	mu       sync.Mutex
	rec      *Recovery // until Recovered hands it over
	wal      *os.File
	walLen   int64
	walRecs  int
	unsynced int
	segments []segMeta // live lineage, ascending by generation
	maxGen   uint64    // highest generation present on disk (damaged ones included)
	lastSeal int64     // LastSealUnixMS
	// mappings holds every mapping this store ever opened; they are
	// released only at Close — in-flight queries may still hold
	// snapshots over superseded segments, and a compaction lineage is
	// O(log n) mappings deep, so deferring unmap is bounded.
	mappings []*Mapped
	// opened holds what Open found: the Recovered* fields,
	// SkippedSegments and OpenMicros of every Stats.
	opened Stats
	err    error // the first error a write returned (see keep)
}

// Open prepares a data directory for serving: creates it if missing,
// removes orphaned temp files from interrupted segment writes, loads
// the live segment lineage named by the manifest (falling back to the
// newest readable segment file when the manifest is absent or its
// segments are damaged; a manifest that does not parse fails the open,
// see loadManifest), replays the WAL tail, truncates any torn record,
// and leaves the WAL open for append. The recovered state is available
// via Recovered.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating data dir: %w", err)
	}
	openStart := time.Now()
	s := &Store{dir: dir, syncEvery: opts.syncEvery(), mapSegs: opts.MapSegments}
	if s.mapSegs {
		s.cache = NewPostingsCache(DefaultPostingsBudget)
	}
	if err := s.cleanOrphans(); err != nil {
		return nil, err
	}
	rec := &Recovery{}
	gens, err := s.scanSegments()
	if err != nil {
		return nil, err
	}
	if len(gens) > 0 {
		// New segments number past every file present, including damaged
		// ones a recovery skipped — names never collide.
		s.maxGen = gens[len(gens)-1]
	}
	// Prefer the manifest's live lineage; a generation it names that is
	// unreadable is recorded and skipped (its documents survive in the
	// WAL unless a seal already superseded them).
	live, err := s.loadManifest()
	if err != nil {
		return nil, err
	}
	tried := map[uint64]bool{}
	for _, gen := range live {
		tried[gen] = true
		path := s.segmentPath(gen)
		ix, size, m, err := s.openSegment(path)
		if err != nil {
			if !IsCorrupt(err) && !errors.Is(err, os.ErrNotExist) {
				return nil, err
			}
			s.opened.SkippedSegments = append(s.opened.SkippedSegments, filepath.Base(path))
			continue
		}
		s.adopt(rec, gen, path, ix, size, m)
	}
	if len(rec.Segments) == 0 {
		// No manifest, or everything it named was unreadable: fall back
		// to the newest readable segment file (pre-manifest directories,
		// and the last line of defense after lineage damage).
		for i := len(gens) - 1; i >= 0; i-- {
			if tried[gens[i]] {
				continue
			}
			path := s.segmentPath(gens[i])
			ix, size, m, err := s.openSegment(path)
			if err != nil {
				if !IsCorrupt(err) {
					return nil, err
				}
				s.opened.SkippedSegments = append(s.opened.SkippedSegments, filepath.Base(path))
				continue
			}
			s.adopt(rec, gens[i], path, ix, size, m)
			break
		}
	}
	for _, seg := range rec.Segments {
		s.opened.RecoveredSegmentDocs += seg.Index.Len()
	}
	walPath := filepath.Join(dir, "wal.log")
	walDocs, goodLen, dropped, err := replayWAL(walPath)
	if err != nil {
		return nil, err
	}
	s.opened.RecoveredWALDropped = dropped
	if len(walDocs) > 0 {
		// Dedup needs every segment document's ID (DocID — over a
		// mapped segment that is a ref read per document, not a full
		// decode). With an empty WAL — the common warm restart after a
		// clean seal — skip it entirely, keeping mapped opens
		// O(#postings lists).
		seen := map[string]bool{}
		for _, seg := range rec.Segments {
			for i := 0; i < seg.Index.Len(); i++ {
				seen[seg.Index.DocID(i)] = true
			}
		}
		for _, d := range walDocs {
			// A crash between segment rename and WAL reset leaves both
			// holding the same documents; the segment wins.
			if !seen[d.ID] {
				seen[d.ID] = true
				rec.WALDocs = append(rec.WALDocs, d)
			}
		}
	}
	f, goodLen, err := openWALForAppend(walPath, goodLen)
	if err != nil {
		return nil, err
	}
	s.wal, s.walLen, s.walRecs = f, goodLen, len(walDocs)
	s.rec = rec
	s.opened.RecoveredWALDocs = len(rec.WALDocs)
	s.opened.OpenMicros = time.Since(openStart).Microseconds()
	return s, nil
}

// adopt enters one segment openSegment opened into the recovery and the
// live lineage.
func (s *Store) adopt(rec *Recovery, gen uint64, path string, ix *mining.Index, size int64, m *Mapped) {
	rec.Segments = append(rec.Segments, RecoveredSegment{Gen: gen, Index: ix})
	s.segments = append(s.segments, segMeta{gen: gen, path: path, bytes: size, docs: ix.Len(), mapped: m})
}

// openSegment opens one segment file through the segment reader into an
// index, the way the store is configured: mapped (zero-copy,
// lazy; the mapping kept for Close) when MapSegments is on, else read
// whole and materialized onto the heap. Either way one reader parses the
// bytes, so there is nothing to fall back to: the materializing open
// reads every record and list the mapped one would serve, and refuses
// every file the mapped open refuses.
// s.mu must not be held.
func (s *Store) openSegment(path string) (*mining.Index, int64, *Mapped, error) {
	if !s.mapSegs {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("store: reading segment: %w", err)
		}
		ix, err := materialize(filepath.Base(path), data)
		if err != nil {
			return nil, 0, nil, err
		}
		return ix, int64(len(data)), nil, nil
	}
	m, err := OpenMapped(path, s.cache)
	if err != nil {
		return nil, 0, nil, err
	}
	s.mu.Lock()
	s.mappings = append(s.mappings, m)
	s.mu.Unlock()
	return mining.FromBacking(m), m.Bytes(), m, nil
}

// MapSegment reopens a live generation through the mapped reader —
// the compaction handoff: after ReplaceSegments persists a merged
// segment, the serving layer swaps its heap-resident merged index for
// the mapping so the materialized copy can be collected. Fails (and
// the caller keeps the heap index) rather than ever serving a
// generation that does not map cleanly, and a store opened without
// MapSegments maps nothing. Its failure is not recorded for Err: the
// remap is an optimization, and the segment it did not map is durable.
func (s *Store) MapSegment(gen uint64) (*mining.Index, error) {
	if !s.mapSegs {
		return nil, fmt.Errorf("store: MapSegment: store was opened without MapSegments")
	}
	s.mu.Lock()
	live := false
	for i := range s.segments {
		if s.segments[i].gen == gen {
			live = true
		}
	}
	s.mu.Unlock()
	if !live {
		return nil, fmt.Errorf("store: MapSegment: generation %d is not live", gen)
	}
	ix, _, m, err := s.openSegment(s.segmentPath(gen))
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	for i := range s.segments {
		if s.segments[i].gen == gen {
			s.segments[i].mapped = m
		}
	}
	s.mu.Unlock()
	return ix, nil
}

// Err returns the store's sticky error: the first error a write returned
// (AppendWAL, SyncWAL, ResetWAL, ReplaceSegments and so AppendSegment),
// else that of the first mapping that has one — a mapped segment that
// failed a lazy decode answers empty from then on (Mapped.fail). Either
// means something the caller holds is not durable, or not served, as it
// should be; nothing clears it. Still readable after Close.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.errLocked()
}

func (s *Store) errLocked() error {
	if s.err != nil {
		return s.err
	}
	for _, m := range s.mappings {
		if err := m.Err(); err != nil {
			return err
		}
	}
	return nil
}

// keep records *err for Err if it is the first error a write returned.
// Each writer defers it over its named result before it takes s.mu, so
// it runs once the writer has let go of the lock.
func (s *Store) keep(err *error) {
	if *err == nil {
		return
	}
	s.mu.Lock()
	if s.err == nil {
		s.err = *err
	}
	s.mu.Unlock()
}

// Recovered hands what Open reconstructed from disk to the caller, once:
// the store keeps no reference to it, so recovered segments the caller
// later compacts away can be collected. A second call returns nil.
func (s *Store) Recovered() *Recovery {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.rec
	s.rec = nil
	return rec
}

// cleanOrphans removes *.tmp files left by interrupted atomic writes.
func (s *Store) cleanOrphans() error {
	matches, err := filepath.Glob(filepath.Join(s.dir, "*.tmp"))
	if err != nil {
		return fmt.Errorf("store: scanning temp files: %w", err)
	}
	for _, m := range matches {
		if err := os.Remove(m); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("store: removing orphaned %s: %w", m, err)
		}
	}
	return nil
}

func (s *Store) segmentPath(gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%016d.seg", gen))
}

// scanSegments returns the segment generations present, ascending.
func (s *Store) scanSegments() ([]uint64, error) {
	matches, err := filepath.Glob(filepath.Join(s.dir, "seg-*.seg"))
	if err != nil {
		return nil, fmt.Errorf("store: scanning segments: %w", err)
	}
	var gens []uint64
	for _, m := range matches {
		base := filepath.Base(m)
		var gen uint64
		if _, err := fmt.Sscanf(base, "seg-%d.seg", &gen); err != nil || base != filepath.Base(s.segmentPath(gen)) {
			continue // not ours: segmentPath never writes that name
		}
		gens = append(gens, gen)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// materialize opens segment bytes through the segment reader and copies
// every document and postings list onto the heap. A record or list that
// does not decode fails it, as the open itself does on a damaged
// envelope, directory or string table; the error satisfies IsCorrupt.
func materialize(name string, data []byte) (*mining.Index, error) {
	m, err := newMapped(name, data, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("store: segment %s: %w", name, err)
	}
	ix := mining.Materialize(m)
	if err := m.Err(); err != nil {
		return nil, err
	}
	return ix, nil
}

// manifestPath is the live-lineage file: a versioned header followed by
// one live segment generation per line. It is rewritten atomically on
// every segment mutation; segment files not named by it are dead weight
// from interrupted mutations (harmless — generation numbering never
// reuses them).
func (s *Store) manifestPath() string { return filepath.Join(s.dir, "MANIFEST") }

const manifestHeader = "BVMF 1"

// loadManifest returns the live generations the manifest names,
// ascending, or nil when there is no manifest (the caller then falls back
// to the newest-readable-file scan). A manifest that exists but does not
// parse fails with an error that satisfies IsCorrupt: its lineage is
// unknown, and serving whatever segment file reads best would drop the
// rest of it without a word — the rule a WAL record that passes its CRC
// and does not parse follows too.
func (s *Store) loadManifest() ([]uint64, error) {
	path := s.manifestPath()
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: reading manifest: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if header := strings.TrimSpace(lines[0]); header != manifestHeader {
		return nil, fmt.Errorf("store: %s: %w: header %q, want %q", path, errCorrupt, header, manifestHeader)
	}
	var gens []uint64
	for i, line := range lines[1:] {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		gen, err := strconv.ParseUint(line, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("store: %s: %w: line %d: generation %q", path, errCorrupt, i+2, line)
		}
		gens = append(gens, gen)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// writeManifest atomically replaces the live lineage.
func (s *Store) writeManifest(gens []uint64) error {
	var b strings.Builder
	b.WriteString(manifestHeader)
	b.WriteByte('\n')
	for _, g := range gens {
		b.WriteString(strconv.FormatUint(g, 10))
		b.WriteByte('\n')
	}
	return s.publishFile(s.manifestPath(), "manifest", []byte(b.String()))
}

// publishFile atomically replaces the file at path with data: a temp
// file written and fsynced, renamed into place, the directory fsynced.
// The temp file is removed when a step fails; what names the file in the
// error of the rename. Every segment and manifest the store writes goes
// through here.
func (s *Store) publishFile(path, what string, data []byte) error {
	tmp := path + ".tmp"
	if err := writeFileSync(tmp, data); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publishing %s: %w", what, err)
	}
	return syncDir(s.dir)
}

// AppendSegment atomically persists a sealed index as a new segment
// appended to the live lineage — the per-publish path of the segmented
// serving layer: each snapshot swap durably adds only the documents
// sealed by that swap. The WAL is untouched (it keeps covering
// everything until the final seal resets it).
func (s *Store) AppendSegment(ix *mining.Index) (Stats, error) {
	return s.ReplaceSegments(nil, ix)
}

// ReplaceSegments is the one segment-lineage mutator: it atomically
// persists ix as the next generation — numbered past every file the
// directory has carried, damaged ones included — superseding the removed
// generations (a compaction's inputs; none for an append). The new
// segment is written first, then the manifest swaps the lineage, then
// the superseded files are deleted. A crash at any point leaves a
// manifest whose lineage covers the same documents.
func (s *Store) ReplaceSegments(removed []uint64, ix *mining.Index) (_ Stats, err error) {
	defer s.keep(&err)
	data := EncodeSegment(ix)
	rm := make(map[uint64]bool, len(removed))
	for _, g := range removed {
		rm[g] = true
	}
	s.mu.Lock()
	gen := s.maxGen + 1
	var live []uint64
	for _, m := range s.segments {
		if !rm[m.gen] {
			live = append(live, m.gen)
		}
	}
	live = append(live, gen)
	s.mu.Unlock()

	if err := s.publishFile(s.segmentPath(gen), "segment", data); err != nil {
		return Stats{}, err
	}
	if err := s.writeManifest(live); err != nil {
		return Stats{}, err
	}

	s.mu.Lock()
	kept := s.segments[:0]
	for _, m := range s.segments {
		if !rm[m.gen] {
			kept = append(kept, m)
		}
	}
	s.segments = append(kept, segMeta{gen: gen, path: s.segmentPath(gen), bytes: int64(len(data)), docs: ix.Len()})
	s.maxGen = gen
	s.lastSeal = time.Now().UnixMilli()
	s.mu.Unlock()

	for _, g := range removed {
		if g != 0 {
			os.Remove(s.segmentPath(g))
		}
	}
	return s.Stats(), nil
}

// writeFileSync writes data to path and fsyncs it before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating %s: %w", filepath.Base(path), err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("store: writing %s: %w", filepath.Base(path), err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: syncing %s: %w", filepath.Base(path), err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: closing %s: %w", filepath.Base(path), err)
	}
	return nil
}

// syncDir fsyncs a directory so a completed rename is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: opening data dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: syncing data dir: %w", err)
	}
	return nil
}

// AppendWAL logs one ingested document, fsyncing on the configured
// cadence. Called from the single ingest goroutine.
func (s *Store) AppendWAL(doc mining.Document) (err error) {
	defer s.keep(&err)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return fmt.Errorf("store: AppendWAL on a closed store")
	}
	rec := appendWALRecord(nil, doc)
	if _, err := s.wal.Write(rec); err != nil {
		return fmt.Errorf("store: appending WAL record: %w", err)
	}
	s.walLen += int64(len(rec))
	s.walRecs++
	s.unsynced++
	if s.unsynced >= s.syncEvery {
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("store: syncing WAL: %w", err)
		}
		s.unsynced = 0
	}
	return nil
}

// SyncWAL forces any buffered-in-kernel WAL records to disk regardless
// of the cadence.
func (s *Store) SyncWAL() (err error) {
	defer s.keep(&err)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil || s.unsynced == 0 {
		return nil
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("store: syncing WAL: %w", err)
	}
	s.unsynced = 0
	return nil
}

// ResetWAL empties the log — every record is now covered by a durable
// segment.
func (s *Store) ResetWAL() (err error) {
	defer s.keep(&err)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return fmt.Errorf("store: ResetWAL on a closed store")
	}
	if err := s.wal.Truncate(walHeaderLen); err != nil {
		return fmt.Errorf("store: resetting WAL: %w", err)
	}
	if _, err := s.wal.Seek(walHeaderLen, 0); err != nil {
		return fmt.Errorf("store: resetting WAL: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("store: syncing reset WAL: %w", err)
	}
	s.walLen, s.walRecs, s.unsynced = walHeaderLen, 0, 0
	return nil
}

// Stats returns the store's current state.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.opened
	st.WALRecords, st.WALBytes, st.LastSealUnixMS = s.walRecs, s.walLen, s.lastSeal
	if err := s.errLocked(); err != nil {
		st.PersistError = err.Error()
	}
	for _, m := range s.segments {
		st.SegmentDocs += m.docs
		if m.mapped != nil {
			st.MappedSegments++
			st.MappedBytes += m.mapped.Bytes()
		}
	}
	if s.cache != nil {
		pc := s.cache.StatsSnapshot()
		st.PostingsCache = &pc
	}
	if n := len(s.segments); n > 0 {
		newest := s.segments[n-1]
		st.SegmentGen, st.SegmentPath, st.SegmentBytes = newest.gen, newest.path, newest.bytes
	}
	return st
}

// Close syncs and closes the WAL and releases every segment mapping.
// The store — and every index served from a mapping — is unusable
// afterwards; the serving layer must have stopped queries first.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	// The closed mappings stay listed: Err still reads their verdicts, and
	// closing one twice is a no-op.
	for _, m := range s.mappings {
		if merr := m.Close(); err == nil {
			err = merr
		}
	}
	if s.wal == nil {
		return err
	}
	if serr := s.wal.Sync(); err == nil {
		err = serr
	}
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	s.wal = nil
	return err
}

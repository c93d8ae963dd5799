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
	// loader and named in Recovery.SkippedSegments; a file that is sound
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

// RecoveredSegment is one live segment Open loaded from disk, already
// Prepared and query-ready.
type RecoveredSegment struct {
	Gen   uint64
	Index *mining.Index
}

// Recovery is what Open reconstructed from the data directory: the
// live segments named by the manifest (already Prepared, so they can be
// published and queried immediately) and the WAL tail of documents
// ingested after they were written, deduplicated against them.
type Recovery struct {
	// Segments are the recovered live segments, ascending by generation.
	Segments []RecoveredSegment
	// SegmentGen is the newest recovered generation; SegmentDocs is the
	// total document count across recovered segments.
	SegmentGen  uint64
	SegmentDocs int
	// WALDocs are the intact WAL records not already in the segment, in
	// append order.
	WALDocs []mining.Document
	// WALDropped counts torn-tail bytes truncated from the WAL —
	// documents inside the configured fsync window when the process
	// died, which ingest will simply re-process.
	WALDropped int64
	// SkippedSegments names segment files that failed validation and
	// were passed over for an older generation.
	SkippedSegments []string
}

// IDs returns the set of durable document IDs — the ingest skip set
// for warm restarts.
func (r *Recovery) IDs() map[string]bool {
	ids := make(map[string]bool, r.SegmentDocs+len(r.WALDocs))
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

// SegmentStat describes one live on-disk segment.
type SegmentStat struct {
	Gen   uint64
	Path  string
	Bytes int64
	Docs  int
}

// Stats is the store's operational state, surfaced on /statsz. The
// scalar Segment* fields describe the newest live segment (SegmentDocs
// is the total across the lineage); Segments lists every live segment.
type Stats struct {
	SegmentGen   uint64
	SegmentPath  string
	SegmentBytes int64
	SegmentDocs  int
	Segments     []SegmentStat
	WALRecords   int
	WALBytes     int64
	// LastSeal is the wall time the current segment was written by this
	// process; zero for segments inherited from an earlier run.
	LastSeal time.Time
	// Mapped-segment serving (zero unless the store was opened with
	// MapSegments): how many live segments are served from mappings,
	// their total mapped bytes, the decoded-postings cache occupancy,
	// and how long Open spent bringing the lineage up.
	MappedSegments int
	MappedBytes    int64
	PostingsCache  PostingsCacheStats
	OpenDuration   time.Duration
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
	rec      *Recovery
	wal      *os.File
	walLen   int64
	walRecs  int
	unsynced int
	segments []segMeta // live lineage, ascending by generation
	maxGen   uint64    // highest generation present on disk (damaged ones included)
	lastSeal time.Time
	// mappings holds every mapping this store ever opened; they are
	// released only at Close — in-flight queries may still hold
	// snapshots over superseded segments, and a compaction lineage is
	// O(log n) mappings deep, so deferring unmap is bounded.
	mappings []*Mapped
	openDur  time.Duration // time Open spent loading/mapping live segments
}

// Open prepares a data directory for serving: creates it if missing,
// removes orphaned temp files from interrupted segment writes, loads
// the live segment lineage named by the manifest (falling back to the
// newest readable segment file when the manifest is absent or its
// segments are damaged), replays the WAL tail, truncates any torn
// record, and leaves the WAL open for append. The recovered state is
// available via Recovered.
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
	tried := map[uint64]bool{}
	for _, gen := range s.loadManifest() {
		tried[gen] = true
		path := s.segmentPath(gen)
		ix, size, m, err := s.openSegment(path)
		if err != nil {
			if !IsCorrupt(err) && !errors.Is(err, os.ErrNotExist) {
				return nil, err
			}
			rec.SkippedSegments = append(rec.SkippedSegments, filepath.Base(path))
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
				rec.SkippedSegments = append(rec.SkippedSegments, filepath.Base(path))
				continue
			}
			s.adopt(rec, gens[i], path, ix, size, m)
			break
		}
	}
	for _, seg := range rec.Segments {
		rec.SegmentDocs += seg.Index.Len()
		if seg.Gen > rec.SegmentGen {
			rec.SegmentGen = seg.Gen
		}
	}
	walPath := filepath.Join(dir, "wal.log")
	walDocs, goodLen, dropped, err := replayWAL(walPath)
	if err != nil {
		return nil, err
	}
	rec.WALDropped = dropped
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
	s.openDur = time.Since(openStart)
	return s, nil
}

// adopt enters one segment openSegment opened into the recovery and the
// live lineage.
func (s *Store) adopt(rec *Recovery, gen uint64, path string, ix *mining.Index, size int64, m *Mapped) {
	rec.Segments = append(rec.Segments, RecoveredSegment{Gen: gen, Index: ix})
	s.segments = append(s.segments, segMeta{gen: gen, path: path, bytes: size, docs: ix.Len(), mapped: m})
}

// openSegment opens one segment file through the segment reader into a
// Prepared index, the way the store is configured: mapped (zero-copy,
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
		ix.Prepare()
		return ix, int64(len(data)), nil, nil
	}
	m, err := OpenMapped(path, s.cache)
	if err != nil {
		return nil, 0, nil, err
	}
	s.mu.Lock()
	s.mappings = append(s.mappings, m)
	s.mu.Unlock()
	ix := mining.FromBacking(m)
	ix.Prepare()
	return ix, m.Bytes(), m, nil
}

// MapSegment reopens a live generation through the mapped reader —
// the compaction handoff: after ReplaceSegments persists a merged
// segment, the serving layer swaps its heap-resident merged index for
// the mapping so the materialized copy can be collected. Fails (and
// the caller keeps the heap index) rather than ever serving a
// generation that does not map cleanly, and a store opened without
// MapSegments maps nothing.
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

// Err returns the sticky error of the first mapping that has one: a
// mapped segment that failed a lazy decode answers empty from then on
// (Mapped.fail), and this is how the serving layer gets to hear of it.
// Nil for a store without mappings; still readable after Close.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.mappings {
		if err := m.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Recovered returns what Open reconstructed from disk.
func (s *Store) Recovered() *Recovery {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec
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
// ascending, or nil when the manifest is missing or malformed (the
// caller then falls back to the newest-readable-file scan).
func (s *Store) loadManifest() []uint64 {
	data, err := os.ReadFile(s.manifestPath())
	if err != nil {
		return nil
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) == 0 || strings.TrimSpace(lines[0]) != manifestHeader {
		return nil
	}
	var gens []uint64
	for _, line := range lines[1:] {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		gen, err := strconv.ParseUint(line, 10, 64)
		if err != nil {
			return nil
		}
		gens = append(gens, gen)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens
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
	path := s.manifestPath()
	tmp := path + ".tmp"
	if err := writeFileSync(tmp, []byte(b.String())); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publishing manifest: %w", err)
	}
	return syncDir(s.dir)
}

// writeSegmentFile atomically writes one segment file: temp file,
// fsync, rename into place, fsync the directory.
func (s *Store) writeSegmentFile(gen uint64, data []byte) error {
	path := s.segmentPath(gen)
	tmp := path + ".tmp"
	if err := writeFileSync(tmp, data); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publishing segment: %w", err)
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
func (s *Store) ReplaceSegments(removed []uint64, ix *mining.Index) (Stats, error) {
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

	if err := s.writeSegmentFile(gen, data); err != nil {
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
	s.lastSeal = time.Now()
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
func (s *Store) AppendWAL(doc mining.Document) error {
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
func (s *Store) SyncWAL() error {
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
func (s *Store) ResetWAL() error {
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

// Stats returns the store's current persistence state.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		WALRecords:   s.walRecs,
		WALBytes:     s.walLen,
		LastSeal:     s.lastSeal,
		OpenDuration: s.openDur,
	}
	for _, m := range s.segments {
		st.Segments = append(st.Segments, SegmentStat{Gen: m.gen, Path: m.path, Bytes: m.bytes, Docs: m.docs})
		st.SegmentDocs += m.docs
		if m.mapped != nil {
			st.MappedSegments++
			st.MappedBytes += m.mapped.Bytes()
		}
	}
	if s.cache != nil {
		st.PostingsCache = s.cache.StatsSnapshot()
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

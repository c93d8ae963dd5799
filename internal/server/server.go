// Package server is the query-serving tier of BIVoC: it turns the
// batch-and-stream mining layer into a continuously queryable daemon
// (cmd/bivocd), the §IV.D interactive concept index analysts hit for
// relative frequencies, 2-D associations, trends and drill-downs.
//
// Architecture — immutable segments behind hot-swappable snapshots:
//
//	ingest loop (internal/pipeline) ──▶ pending docs accumulate
//	        │  every SwapInterval / SwapEvery docs
//	        ▼
//	seal ONLY the pending batch  → new immutable segment   (O(new docs))
//	        │                       appended to the live segment list
//	        ▼
//	atomic.Pointer[snapshot].Store(SegmentSet over segments) ◀── generation++
//	                                        ▲
//	HTTP handlers: snap := ptr.Load() ──────┘  (one load per request)
//
// A background ingest loop drives the streaming pipeline and
// accumulates newly arrived documents in a pending buffer. On a
// configurable cadence it seals just that buffer into a new immutable
// segment (a sealed, Prepared *mining.Index) and publishes a snapshot
// whose view is a mining.SegmentSet fanning queries in across all live
// segments — counts, trends and drill-downs merge additively, and
// association tables re-derive Wilson intervals from merged integer
// marginals, so every response is byte-identical to a monolithic index
// over the same corpus. Publish cost is therefore O(new docs since the
// last swap), not O(corpus).
//
// A background size-tiered compactor bounds the segment count
// (Config.MaxSegments): when a publish pushes the list past the bound
// it merges the smallest segments and republishes the same generation
// with the same cache — compaction changes no served byte, so it is
// invisible to clients.
//
// Hot query results are memoized in a per-snapshot LRU cache of final
// response bodies: cached and uncached replies are byte-identical, and
// a snapshot swap invalidates the whole cache structurally (the new
// snapshot carries a new, empty cache).
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bivoc/internal/mining"
	"bivoc/internal/pipeline"
	"bivoc/internal/store"
)

// DocSource feeds the server's ingest loop: it calls emit once per
// mining document and returns when the stream is exhausted (the server
// then publishes the final, sealed snapshot) or when ctx is cancelled.
// core.NewServeServer adapts the call-analysis pipeline into one.
//
// already reports whether a document ID is durable from a previous run
// (recovered from the persistence layer's segments + WAL). Sources
// should skip such items before paying any pipeline work — that skip is
// what turns a restart over a persisted corpus from an O(corpus)
// re-ingest into a warm, sub-second resume. Sources that predate
// persistence may ignore it; the ingest loop drops already-durable
// documents it receives anyway.
type DocSource func(ctx context.Context, already func(id string) bool, emit func(mining.Document) error) error

// Config assembles a Server.
type Config struct {
	// Addr is the TCP listen address ("127.0.0.1:8080"; ":0" picks a
	// free port, readable from Server.Addr after Start).
	Addr string
	// Source feeds documents into the index. Required.
	Source DocSource
	// PipelineStats, when set, is surfaced on /statsz — wire it to the
	// ingest pipeline's Stats method.
	PipelineStats func() []pipeline.StageStats
	// SwapInterval publishes a fresh snapshot on a time cadence while
	// ingest is running (0 disables the ticker). A tick with no pending
	// documents publishes nothing.
	SwapInterval time.Duration
	// SwapEvery publishes a fresh snapshot every N newly ingested
	// documents (0 disables; deterministic, which tests rely on).
	// Documents recovered from persistence do not count toward the
	// cadence — after a warm restart the first swap still lands exactly
	// N ingested documents in. Both cadences may be active at once.
	SwapEvery int
	// MaxSegments bounds the live segment count: when a publish pushes
	// the list past the bound, a background size-tiered compaction
	// merges the smallest segments back under it. 0 means the default
	// (8); negative disables compaction (unbounded segments).
	MaxSegments int
	// CacheSize bounds the per-snapshot LRU result cache (entries).
	// Default 256; negative disables caching.
	CacheSize int
	// Confidence is the association-interval confidence used when a
	// query does not pass its own. Default 0.95.
	Confidence float64
	// Persist, when set, makes the daemon durable: the store's recovered
	// state (live segments + WAL tail) seeds the first snapshot and the
	// ingest skip set, every ingested document is WAL-appended, every
	// published segment is written to the store's lineage, and
	// compactions replace their inputs on disk. Open it with store.Open;
	// the server takes ownership (Shutdown closes it). When the store
	// maps its segments (store.Options.MapSegments), so does the server:
	// after a compaction lands on disk it swaps the in-memory merge result
	// for a mapped view of the very bytes it just wrote. That remap is an
	// optimization, never a correctness dependency — if it fails the heap
	// index keeps serving.
	Persist *store.Store
}

func (c Config) cacheSize() int {
	if c.CacheSize == 0 {
		return 256
	}
	return c.CacheSize
}

// maxSegments resolves Config.MaxSegments: 0 picks the default bound,
// negative disables compaction (returned as 0 = unbounded).
func (c Config) maxSegments() int {
	if c.MaxSegments == 0 {
		return 8
	}
	if c.MaxSegments < 0 {
		return 0
	}
	return c.MaxSegments
}

// snapshot is one published generation. All fields are immutable after
// publication except the cache, which is internally synchronized; the
// view fans in across sealed segments that are never mutated, so
// handlers read it without locks.
type snapshot struct {
	gen    uint64
	view   mining.Querier
	sealed bool // true once the source is exhausted: the corpus is final
	cache  lruCache
}

// segment is one live immutable segment: a sealed, Prepared index plus
// the on-disk generation backing it (0 while it lives only in RAM —
// either persistence is off, or the write failed and degraded mode is
// on).
type segment struct {
	ix      *mining.Index
	diskGen uint64
}

// Server owns the segment list, the snapshot pointer, the ingest loop
// and the HTTP API. Create with New, run with Start, stop with Shutdown.
type Server struct {
	cfg Config
	eps Endpoints
	mux http.Handler

	snap  atomic.Pointer[snapshot]
	gen   atomic.Uint64
	pubMu sync.Mutex // serializes publish + compaction; guards segs

	// segs is the live segment list, append-ordered; only publish (under
	// pubMu) appends and only the single compactor goroutine (under
	// pubMu) splices.
	segs []segment

	// pending is the not-yet-published ingest buffer; newDocs counts
	// documents ingested this run (recovered documents excluded), which
	// keys the SwapEvery cadence.
	pendMu  sync.Mutex
	pending []mining.Document
	newDocs int

	compacting  atomic.Bool // single-flight latch for the compactor
	compactWG   sync.WaitGroup
	compactions atomic.Uint64

	hits, misses atomic.Uint64
	slo          *SLORecorder

	life       Lifecycle
	ingestCtx  context.Context // cancelled by Shutdown
	ingestStop context.CancelFunc
	ingestDone chan struct{}

	errMu      sync.Mutex
	ingestErr  error
	persistErr error

	// Recovered warm-start state (nil / empty without Config.Persist):
	// the durable document ID skip set and the recovery summary.
	recIDs  map[string]bool
	recInfo recoveryInfo

	// handlerDelay pads every /v1 handler; test hook for exercising the
	// graceful drain with genuinely in-flight requests.
	handlerDelay time.Duration
}

// recoveryInfo summarizes what a warm start adopted from disk, for
// /statsz and the daemon's startup line.
type recoveryInfo struct {
	segmentDocs int
	walDocs     int
	walDropped  int64
	skipped     []string // damaged segment files passed over
}

// New returns an unstarted server. Without persistence the initial
// snapshot is generation zero over an empty segment set, so queries are
// answerable (with zero counts) before the first swap. With
// Config.Persist, the recovered segments seed the live list and the WAL
// tail seeds the pending buffer, and the initial snapshot fans in over
// both — the daemon serves its pre-crash corpus from the first request,
// before ingest has re-processed anything.
func New(cfg Config) (*Server, error) {
	if cfg.Source == nil {
		return nil, errors.New("server: Config.Source is required")
	}
	s := &Server{
		cfg:        cfg,
		eps:        NewEndpoints(cfg.Confidence),
		slo:        NewSLORecorder(),
		ingestDone: make(chan struct{}),
	}
	s.ingestCtx, s.ingestStop = context.WithCancel(context.Background())
	if cfg.Persist != nil {
		rec := cfg.Persist.Recovered()
		s.recIDs = rec.IDs()
		s.recInfo = recoveryInfo{
			segmentDocs: rec.SegmentDocs,
			walDocs:     len(rec.WALDocs),
			walDropped:  rec.WALDropped,
			skipped:     rec.SkippedSegments,
		}
		for _, seg := range rec.Segments {
			s.segs = append(s.segs, segment{ix: seg.Index, diskGen: seg.Gen})
		}
		s.pending = append(s.pending, rec.WALDocs...)
	}
	// The gen-0 view covers the WAL tail too, through a temporary
	// segment that is NOT added to the live list — the tail stays in
	// pending (Seal sorts its argument, hence the clone) and becomes a
	// real (and durable) segment at the first publish.
	view := make([]*mining.Index, 0, len(s.segs)+1)
	for _, seg := range s.segs {
		view = append(view, seg.ix)
	}
	if len(s.pending) > 0 {
		view = append(view, mining.Seal(slices.Clone(s.pending)))
	}
	s.snap.Store(&snapshot{
		gen:   0,
		view:  mining.NewSegmentSet(view...),
		cache: newLRUCache(cfg.cacheSize()),
	})
	s.mux = s.buildMux()
	return s, nil
}

// RecoveryInfo reports what a warm start adopted from the persistence
// layer: documents loaded from the live segments, documents replayed
// from the WAL tail, and torn-tail bytes dropped.
func (s *Server) RecoveryInfo() (segmentDocs, walDocs int, walDropped int64) {
	return s.recInfo.segmentDocs, s.recInfo.walDocs, s.recInfo.walDropped
}

// viewLocked builds the fan-in view over the current live segments.
// Caller holds pubMu.
func (s *Server) viewLocked() *mining.SegmentSet {
	ixs := make([]*mining.Index, len(s.segs))
	for i, seg := range s.segs {
		ixs[i] = seg.ix
	}
	return mining.NewSegmentSet(ixs...)
}

// publishPending drains the pending buffer, seals it into a new
// immutable segment — O(new docs), never O(corpus) — and swaps in the
// next generation fanning in across all live segments. An empty drain
// publishes nothing unless this is the final (sealed) publish, which
// always advances the generation so clients can observe the seal.
//
// persist controls whether the new segment is appended to the store's
// on-disk lineage (cadence and seal publishes persist; the final flush
// of a cancelled ingest does not — its documents are already safe in
// the WAL, and the next boot re-adopts them from there).
//
// Serialized under pubMu, and the drain happens inside the lock: a
// slower earlier publish can never overwrite a later one, and batches
// enter the segment list in ingest order.
func (s *Server) publishPending(sealed, persist bool) {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	s.pendMu.Lock()
	batch := s.pending
	s.pending = nil
	s.pendMu.Unlock()
	if len(batch) == 0 && !sealed {
		return
	}
	if len(batch) > 0 {
		// The drained batch is this function's alone, so mining.Seal may
		// sort it in place: one build, in ID order, Prepared, and a panic
		// if the source delivered an ID twice.
		seg := segment{ix: mining.Seal(batch)}
		if persist && s.cfg.Persist != nil {
			if st, err := s.cfg.Persist.AppendSegment(seg.ix); err != nil {
				s.setPersistErr(err)
			} else {
				seg.diskGen = st.SegmentGen
			}
		}
		s.segs = append(s.segs, seg)
	}
	s.snap.Store(&snapshot{
		gen:    s.gen.Add(1),
		view:   s.viewLocked(),
		sealed: sealed,
		cache:  newLRUCache(s.cfg.cacheSize()),
	})
	s.maybeCompactLocked()
}

// maybeCompactLocked launches the compactor when the live segment list
// has outgrown the bound and no compactor is already running. Caller
// holds pubMu.
func (s *Server) maybeCompactLocked() {
	max := s.cfg.maxSegments()
	if max <= 0 || len(s.segs) <= max {
		return
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	s.compactWG.Add(1)
	go s.compactLoop()
}

// compactLoop merges segments size-tiered until the list is back under
// the bound: each round picks the smallest segments, merges them
// outside the lock (the only O(merged docs) work, off the publish
// path), then splices the result in and republishes the SAME generation
// with the SAME cache — the document set is unchanged and the fan-in is
// byte-identical, so compaction is invisible to every client.
func (s *Server) compactLoop() {
	defer s.compactWG.Done()
	defer s.compacting.Store(false)
	for {
		s.pubMu.Lock()
		max := s.cfg.maxSegments()
		if max <= 0 || len(s.segs) <= max {
			s.pubMu.Unlock()
			return
		}
		// Pick the k smallest segments so one round lands exactly at the
		// bound; identify them by index into the append-ordered list
		// (publishes only append, and this loop is the only splicer).
		k := len(s.segs) - max + 1
		victims := smallestSegments(s.segs, k)
		merge := make([]*mining.Index, len(victims))
		for i, vi := range victims {
			merge[i] = s.segs[vi].ix
		}
		s.pubMu.Unlock()

		merged := mining.MergeSegments(merge...)

		s.pubMu.Lock()
		newSeg := segment{ix: merged}
		if s.cfg.Persist != nil && s.PersistErr() == nil {
			if gens, ok := durableGens(s.segs, victims); ok {
				if st, err := s.cfg.Persist.ReplaceSegments(gens, merged); err != nil {
					s.setPersistErr(err)
				} else {
					newSeg.diskGen = st.SegmentGen
					// Serve the compacted segment from the bytes just written
					// when the store maps. On failure (or a store that does
					// not map) keep the heap merge — the map is a memory
					// optimization, not a dependency.
					if mapped, merr := s.cfg.Persist.MapSegment(st.SegmentGen); merr == nil {
						newSeg.ix = mapped
					}
				}
			}
		}
		victimSet := make(map[int]bool, len(victims))
		for _, vi := range victims {
			victimSet[vi] = true
		}
		kept := s.segs[:0]
		for i, seg := range s.segs {
			if !victimSet[i] {
				kept = append(kept, seg)
			}
		}
		s.segs = append(kept, newSeg)
		old := s.snap.Load()
		s.snap.Store(&snapshot{
			gen:    old.gen,
			view:   s.viewLocked(),
			sealed: old.sealed,
			cache:  old.cache,
		})
		s.compactions.Add(1)
		s.pubMu.Unlock()
	}
}

// smallestSegments returns the indexes of the k smallest segments by
// document count (ties to the older segment), ascending by index.
func smallestSegments(segs []segment, k int) []int {
	idx := make([]int, len(segs))
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		min := i
		for j := i + 1; j < len(idx); j++ {
			a, b := segs[idx[j]], segs[idx[min]]
			if a.ix.Len() < b.ix.Len() || (a.ix.Len() == b.ix.Len() && idx[j] < idx[min]) {
				min = j
			}
		}
		idx[i], idx[min] = idx[min], idx[i]
	}
	out := idx[:k]
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

// durableGens collects the on-disk generations of the victim segments;
// ok is false if any victim is RAM-only (then the disk lineage is left
// alone — it still covers those documents via older segments + WAL).
func durableGens(segs []segment, victims []int) ([]uint64, bool) {
	gens := make([]uint64, 0, len(victims))
	for _, vi := range victims {
		if segs[vi].diskGen == 0 {
			return nil, false
		}
		gens = append(gens, segs[vi].diskGen)
	}
	return gens, true
}

// SegmentInfo reports the live segment document counts (append order)
// and the number of compactions run — the observability hook /statsz
// and tests use.
func (s *Server) SegmentInfo() (segDocs []int, compactions uint64) {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	segDocs = make([]int, len(s.segs))
	for i, seg := range s.segs {
		segDocs[i] = seg.ix.Len()
	}
	return segDocs, s.compactions.Load()
}

// allSegmentsDurable reports whether every live segment is backed by an
// on-disk generation.
func (s *Server) allSegmentsDurable() bool {
	s.pubMu.Lock()
	defer s.pubMu.Unlock()
	for _, seg := range s.segs {
		if seg.diskGen == 0 {
			return false
		}
	}
	return true
}

// runIngest drives the document source, sealing pending documents into
// fresh segments on the configured cadences and a final time when the
// source is done — sealed if the source was genuinely exhausted,
// unsealed if the ingest context was cancelled mid-stream.
//
// With persistence configured, the pending buffer starts from the
// recovered WAL tail, every newly ingested document is WAL-appended
// before it counts as accepted, every cadence publish appends a durable
// segment, and a genuine seal resets the WAL once every live segment is
// durable. Persistence failures degrade, not kill: the daemon keeps
// serving from RAM and surfaces the error on /healthz and /statsz.
func (s *Server) runIngest(ctx context.Context) error {
	already := func(id string) bool { return s.recIDs[id] }

	var tickWG sync.WaitGroup
	tickCtx, tickStop := context.WithCancel(ctx)
	defer tickStop()
	if s.cfg.SwapInterval > 0 {
		tickWG.Add(1)
		go func() {
			defer tickWG.Done()
			t := time.NewTicker(s.cfg.SwapInterval)
			defer t.Stop()
			for {
				select {
				case <-tickCtx.Done():
					return
				case <-t.C:
					s.publishPending(false, true)
				}
			}
		}()
	}

	err := s.cfg.Source(ctx, already, func(d mining.Document) error {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if s.recIDs[d.ID] {
			// Durable from a previous run; the source should have
			// skipped it, but replays are harmless — drop, don't doubly
			// index.
			return nil
		}
		if s.cfg.Persist != nil {
			if werr := s.cfg.Persist.AppendWAL(d); werr != nil {
				s.setPersistErr(werr)
			}
		}
		s.pendMu.Lock()
		s.pending = append(s.pending, d)
		s.newDocs++
		n := s.newDocs
		s.pendMu.Unlock()
		// Cadence keys on documents ingested THIS run: recovered durable
		// documents must not shift the swap offsets after a warm restart.
		if s.cfg.SwapEvery > 0 && n%s.cfg.SwapEvery == 0 {
			s.publishPending(false, true)
		}
		return nil
	})
	tickStop()
	tickWG.Wait()

	if err != nil && ctx.Err() != nil && errors.Is(err, ctx.Err()) {
		// Shutdown-initiated cancellation echoing back through the
		// source; publish what arrived and report a clean stop.
		err = nil
	}
	sealed := err == nil && ctx.Err() == nil
	// A genuine seal persists its last segment and always publishes
	// (even with nothing pending) so the sealed flag lands; a cancelled
	// ingest flushes pending to RAM only — the WAL already covers it.
	s.publishPending(sealed, sealed)
	if s.cfg.Persist != nil {
		s.pendMu.Lock()
		ingested := s.newDocs
		s.pendMu.Unlock()
		switch {
		case !sealed:
			// Interrupted mid-stream: force the WAL tail down so the
			// next boot recovers everything accepted so far.
			if werr := s.cfg.Persist.SyncWAL(); werr != nil {
				s.setPersistErr(werr)
			}
		case ingested == 0 && s.recInfo.walDocs == 0:
			// Pure warm restart: nothing new this run, the disk lineage
			// already is the corpus — leave it untouched.
		case s.allSegmentsDurable() && s.PersistErr() == nil:
			// Every document is in a durable segment; the WAL it
			// superseded can go.
			if werr := s.cfg.Persist.ResetWAL(); werr != nil {
				s.setPersistErr(werr)
			}
		default:
			// Degraded: some segment lives only in RAM. Keep the WAL —
			// it is the only durable copy of those documents.
			if werr := s.cfg.Persist.SyncWAL(); werr != nil {
				s.setPersistErr(werr)
			}
		}
	}
	return err
}

// setPersistErr records the first persistence failure (later ones keep
// the original root cause).
func (s *Server) setPersistErr(err error) {
	s.errMu.Lock()
	if s.persistErr == nil {
		s.persistErr = err
	}
	s.errMu.Unlock()
}

// PersistErr returns the first persistence-layer failure, if any: a
// write this server saw fail, else a lazy decode a mapped segment saw
// fail (which answers empty from then on, at 200).
func (s *Server) PersistErr() error {
	s.errMu.Lock()
	err := s.persistErr
	s.errMu.Unlock()
	if err == nil && s.cfg.Persist != nil {
		err = s.cfg.Persist.Err()
	}
	return err
}

// Start listens on Config.Addr and launches the ingest loop and the
// HTTP server. It returns once the listener is live; use Addr for the
// bound address. Pair with Shutdown. A Start that could not bind has
// started nothing and may be tried again.
func (s *Server) Start() error {
	if err := s.life.Start(s.cfg.Addr, s.mux); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	go func() {
		defer close(s.ingestDone)
		if err := s.runIngest(s.ingestCtx); err != nil {
			// An ingest failure degrades the daemon, it does not kill
			// it: the last good snapshot keeps serving, and /healthz
			// and /statsz surface the error.
			s.errMu.Lock()
			s.ingestErr = err
			s.errMu.Unlock()
		}
	}()
	return nil
}

// Addr returns the bound listen address, or "" before Start has bound
// the listener. Safe to poll from other goroutines.
func (s *Server) Addr() string { return s.life.Addr() }

// Handler returns the HTTP API (also useful without Start, e.g. under
// httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// IngestDone is closed once the ingest loop has finished and the final
// snapshot is published.
func (s *Server) IngestDone() <-chan struct{} { return s.ingestDone }

// Generation returns the currently served snapshot generation.
func (s *Server) Generation() uint64 { return s.snap.Load().gen }

// SnapshotInfo reports the current generation, its document count, and
// whether it is the sealed (final) corpus.
func (s *Server) SnapshotInfo() (gen uint64, docs int, sealed bool) {
	sn := s.snap.Load()
	return sn.gen, sn.view.Len(), sn.sealed
}

// CacheStats returns the cumulative result-cache hit/miss counters.
func (s *Server) CacheStats() (hits, misses uint64) {
	return s.hits.Load(), s.misses.Load()
}

// IngestErr returns the ingest loop's terminal error, if any.
func (s *Server) IngestErr() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.ingestErr
}

// Shutdown gracefully stops a Started server: the listener closes, the
// ingest pipeline is cancelled and drains cleanly (PR 2 semantics: every
// in-flight item delivered or accounted), in-flight HTTP requests run
// to completion — no request is dropped mid-flight — and any running
// compaction finishes before the store closes. ctx bounds the HTTP
// drain.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.Addr() == "" {
		return errors.New("server: Shutdown before Start")
	}
	s.ingestStop()
	err := s.life.Shutdown(ctx) // drains in-flight requests
	<-s.ingestDone
	// Ingest is done, so no new compactor can launch; wait out the one
	// that may still be merging before releasing the store it writes to.
	s.compactWG.Wait()
	if s.cfg.Persist != nil {
		// The ingest loop and compactor (the only writers) are done;
		// sync and release the WAL handle.
		err = errors.Join(err, s.cfg.Persist.Close())
	}
	return err
}

package core

import (
	"context"
	"fmt"
	"time"

	"bivoc/internal/fed"
	"bivoc/internal/mining"
	"bivoc/internal/pipeline"
	"bivoc/internal/server"
	"bivoc/internal/store"
)

// ServeConfig drives the bivocd query daemon: a call-analysis pipeline
// feeding the hot-swappable serving index in internal/server.
type ServeConfig struct {
	// Analysis configures the world and the ingest pipeline exactly as in
	// RunCallAnalysis — the daemon serves the same index those runs build.
	Analysis CallAnalysisConfig
	// Addr is the HTTP listen address.
	Addr string
	// SwapInterval / SwapEvery are the snapshot publication cadences
	// (time-based and every-N-documents; see server.Config).
	SwapInterval time.Duration
	SwapEvery    int
	// MaxSegments bounds the serving index's live immutable segment
	// count; past it a background compaction merges the smallest
	// segments (0 = server default, negative = unbounded).
	MaxSegments int
	// CacheSize bounds the per-snapshot query-result cache.
	CacheSize int
	// ShardIndex/ShardCount run the daemon as one shard of a federated
	// fleet: only calls whose document ID hashes onto ShardIndex (per
	// fed.ShardOf, out of ShardCount) are ingested — filtered before the
	// pipeline, so a shard never pays transcription or linking for
	// documents it does not own. ShardCount ≤ 1 serves everything.
	ShardIndex int
	ShardCount int
	// DataDir, when non-empty, makes the daemon durable (internal/store):
	// sealed indexes are written there as binary segments, ingested
	// documents are WAL-logged, and a restart recovers segment + WAL tail
	// instead of re-running the pipeline over already-durable calls.
	DataDir string
	// WALSyncEvery fsyncs the ingest WAL every N documents (0/1 = every
	// document; larger values trade fsync cost for a bounded re-ingest
	// window after a crash).
	WALSyncEvery int
	// MapSegments serves sealed on-disk segments from mmap-backed
	// postings with lazy decode instead of materializing them on the
	// heap: recovered segments open mapped, and each compaction swaps
	// its merged heap index for a mapped view of the bytes it just
	// wrote. The lazily decoded postings share a cache of
	// store.DefaultPostingsBudget bytes. Requires DataDir; query results
	// are byte-identical either way.
	MapSegments bool
}

// DefaultServeConfig serves reference transcripts (UseASR off, so the
// daemon is ingest-light by default) on localhost with a one-second
// snapshot cadence.
func DefaultServeConfig() ServeConfig {
	a := DefaultCallAnalysisConfig()
	a.UseASR = false
	return ServeConfig{
		Analysis:     a,
		Addr:         "127.0.0.1:8080",
		SwapInterval: time.Second,
	}
}

// NewServeServer builds the query server: it generates the synthetic
// world, assembles the same staged pipeline RunCallAnalysis uses, and
// wires its sink to the server's ingest loop, with pipeline stage
// counters surfaced on /statsz. The server is unstarted; use Start and
// Shutdown.
func NewServeServer(cfg ServeConfig) (*server.Server, error) {
	if cfg.ShardCount > 1 && (cfg.ShardIndex < 0 || cfg.ShardIndex >= cfg.ShardCount) {
		return nil, fmt.Errorf("core: ShardIndex %d out of range for %d shards", cfg.ShardIndex, cfg.ShardCount)
	}
	ca, err := newCallAnalysis(cfg.Analysis)
	if err != nil {
		return nil, err
	}
	p, toDoc := ca.buildCallPipeline()
	source := func(ctx context.Context, already func(string) bool, emit func(mining.Document) error) error {
		// Skip already-durable calls before the pipeline, not after it:
		// on a warm restart the transcribe/link/annotate stages never run
		// for recovered documents. Per-call RNG substreams are keyed by
		// call ID, so the surviving calls transcribe identically whether
		// or not their neighbors were skipped.
		// The shard filter runs here too: document IDs are call IDs, so a
		// federated shard hashes each call ID once and never transcribes a
		// call it does not own.
		calls := ca.World.Calls
		fresh := make([]int, 0, len(calls))
		for i := range calls {
			if cfg.ShardCount > 1 && fed.ShardOf(calls[i].ID, cfg.ShardCount) != cfg.ShardIndex {
				continue
			}
			if already == nil || !already(calls[i].ID) {
				fresh = append(fresh, i)
			}
		}
		src := pipeline.IndexedSource(len(fresh), func(i int) callJob { return callJob{idx: fresh[i]} })
		return p.Run(ctx, src, func(j callJob) error { return emit(toDoc(j)) })
	}
	var st *store.Store
	if cfg.DataDir != "" {
		var err error
		st, err = store.Open(cfg.DataDir, store.Options{
			SyncEvery:   cfg.WALSyncEvery,
			MapSegments: cfg.MapSegments,
		})
		if err != nil {
			return nil, err
		}
	}
	return server.New(server.Config{
		Addr:          cfg.Addr,
		Source:        source,
		PipelineStats: p.Stats,
		SwapInterval:  cfg.SwapInterval,
		SwapEvery:     cfg.SwapEvery,
		MaxSegments:   cfg.MaxSegments,
		CacheSize:     cfg.CacheSize,
		Confidence:    cfg.Analysis.Confidence,
		Persist:       st,
	})
}

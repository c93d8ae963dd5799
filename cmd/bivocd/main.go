// Command bivocd is the BIVoC query daemon: it generates a synthetic
// car-rental engagement, runs the call-analysis ingest pipeline in the
// background, and serves the §IV.D mining operations over HTTP JSON
// while the index is still being built. Snapshots of the index are
// hot-swapped on a configurable cadence, so answers are available from
// the first seconds of ingest and settle onto the final sealed index.
//
// Usage:
//
//	bivocd [-addr HOST:PORT] [-asr] [-notes] [-seed N] [-calls N]
//	       [-days N] [-workers N] [-swap-interval D] [-swap-every N]
//	       [-max-segments N] [-cache N] [-confidence P]
//	       [-drain-timeout D] [-data-dir PATH] [-wal-sync N] [-shard I/N]
//	       [-mmap] [-pprof HOST:PORT]
//
// With -pprof the runtime profiles (net/http/pprof) are served on a
// second listener at that address — off by default, and never on the
// query listener.
//
// With -shard i/n the daemon ingests only the calls whose document ID
// hashes onto shard i of n (see internal/fed); run n such daemons and
// front them with bivocfed for a federated deployment.
//
// With -data-dir the daemon is durable: every ingested call is logged
// to an on-disk WAL (fsynced every -wal-sync documents), the sealed
// index is written as a checksummed binary segment, and a restart
// recovers segment + WAL tail and skips re-processing durable calls —
// a warm restart over a completed corpus serves the full index in
// well under a second instead of re-running the whole pipeline.
//
// With -mmap (requires -data-dir) segment files reach memory through
// mmap(2) instead of read(2) — one segment reader parses them either
// way — and are served from the mapping with lazy decode: recovery maps
// the on-disk segment instead of materializing it, compactions swap their merged
// heap index for a mapped view of the bytes just written, and hot
// postings are cached under a 64 MiB byte cap. Query results are
// byte-identical to the materialized path; the win is opening corpora
// larger than memory in O(#lists) time and letting resident size track
// the working set instead of the corpus.
//
// Endpoints:
//
//	/v1/count?dim=L[&dim=L...]        counts per dimension label
//	/v1/associate?row=L&col=L[&confidence=P]
//	/v1/relfreq?category=C&featured=L
//	/v1/drilldown?row=L&col=L[&limit=N]
//	/v1/trend?dim=L
//	/v1/concepts?category=C | ?field=F
//	/healthz, /statsz
//
// Dimension labels use the mining grammar: `field=value`,
// `canonical[category]`, a bare category, or conjunctions joined with
// " ∧ " (URL-escape it: %20%E2%88%A7%20).
//
// SIGINT/SIGTERM shut the daemon down gracefully: in-flight requests
// drain, the ingest pipeline stops cleanly, and the process exits 0.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"bivoc"
	"bivoc/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "HTTP listen address (use :0 for a free port)")
	useASR := flag.Bool("asr", false, "transcribe calls with the ASR substrate (slower, noisier ingest)")
	useNotes := flag.Bool("notes", false, "ingest agent wrap-up notes instead of transcripts")
	seed := flag.Uint64("seed", 2009, "master random seed")
	calls := flag.Int("calls", 400, "calls per day")
	days := flag.Int("days", 10, "days of traffic")
	workers := flag.Int("workers", 0, "ingest transcribe-stage worker count; link and annotate run single (0 = GOMAXPROCS)")
	swapInterval := flag.Duration("swap-interval", time.Second, "publish a fresh index snapshot this often (0 = off)")
	swapEvery := flag.Int("swap-every", 0, "publish a fresh snapshot every N ingested calls (0 = off)")
	maxSegments := flag.Int("max-segments", 0, "compact the serving index past this many segments (0 = default 8, negative = never)")
	cacheSize := flag.Int("cache", 0, "query-result cache entries per snapshot (0 = default 256, negative = off)")
	confidence := flag.Float64("confidence", 0.95, "default association-interval confidence")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "graceful-shutdown drain bound")
	dataDir := flag.String("data-dir", "", "persistence directory: segments + ingest WAL (empty = in-memory only)")
	walSync := flag.Int("wal-sync", 1, "fsync the ingest WAL every N documents (1 = every document)")
	shard := flag.String("shard", "", "serve as shard i of n, as \"i/n\" (empty = serve everything); pair with bivocfed")
	useMmap := flag.Bool("mmap", false, "read sealed segments with mmap(2) instead of read(2) and serve them lazily from the mapping (requires -data-dir)")
	pprofAddr := flag.String("pprof", "", "serve /debug/pprof on this separate listen address (empty = off; use :0 for a free port)")
	flag.Parse()

	if *useMmap && *dataDir == "" {
		fmt.Fprintln(os.Stderr, "bivocd: -mmap requires -data-dir")
		os.Exit(2)
	}

	shardIndex, shardCount, err := parseShard(*shard)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bivocd:", err)
		os.Exit(2)
	}

	cfg := bivoc.DefaultServeConfig()
	cfg.Addr = *addr
	cfg.SwapInterval = *swapInterval
	cfg.SwapEvery = *swapEvery
	cfg.MaxSegments = *maxSegments
	cfg.CacheSize = *cacheSize
	cfg.Analysis.UseASR = *useASR
	cfg.Analysis.UseNotes = *useNotes
	cfg.Analysis.World.Seed = *seed
	cfg.Analysis.World.CallsPerDay = *calls
	cfg.Analysis.World.Days = *days
	cfg.Analysis.Workers = *workers
	cfg.Analysis.Confidence = *confidence
	cfg.DataDir = *dataDir
	cfg.WALSyncEvery = *walSync
	cfg.MapSegments = *useMmap
	cfg.ShardIndex = shardIndex
	cfg.ShardCount = shardCount

	s, err := bivoc.NewQueryServer(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bivocd:", err)
		os.Exit(1)
	}
	// Before Start: from the first line printed on, a signal drains.
	ctx, stop := server.NotifySignals()
	defer stop()
	if err := s.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "bivocd:", err)
		os.Exit(1)
	}
	fmt.Printf("bivocd: listening on %s (%d calls/day x %d days, asr=%v)\n",
		s.Addr(), *calls, *days, *useASR)
	if shardCount > 1 {
		fmt.Printf("bivocd: serving shard %d/%d\n", shardIndex, shardCount)
	}
	if *dataDir != "" {
		segDocs, walDocs, walDropped := s.RecoveryInfo()
		fmt.Printf("bivocd: persistence at %s: recovered %d docs from segment, %d from WAL (%d torn bytes dropped)\n",
			*dataDir, segDocs, walDocs, walDropped)
	}
	if err := server.RunUntilSignal(ctx, "bivocd", *pprofAddr, *drainTimeout, s.Shutdown); err != nil {
		fmt.Fprintln(os.Stderr, "bivocd:", err)
		os.Exit(1)
	}
}

// parseShard parses the -shard flag: "" means not sharded (0 of 1),
// otherwise "i/n" with 0 ≤ i < n.
func parseShard(s string) (index, count int, err error) {
	if s == "" {
		return 0, 1, nil
	}
	i, n, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("-shard %q: want \"i/n\"", s)
	}
	index, err = strconv.Atoi(strings.TrimSpace(i))
	if err == nil {
		count, err = strconv.Atoi(strings.TrimSpace(n))
	}
	if err != nil || count < 1 || index < 0 || index >= count {
		return 0, 0, fmt.Errorf("-shard %q: want \"i/n\" with 0 <= i < n", s)
	}
	return index, count, nil
}

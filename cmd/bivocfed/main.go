// Command bivocfed is the BIVoC federation coordinator: it fronts a
// fleet of sharded bivocd daemons (each started with -shard i/n) and
// serves the same /v1 query API by scattering every query to all shards
// and gathering on integer marginals. Because shards hold disjoint
// document sets and all float math (Wilson intervals, relative
// frequencies, trend slopes) runs once on the merged integer counts, a
// healthy federation answers byte-identically to a single bivocd over
// the union of the shards' documents.
//
// Usage:
//
//	bivocfed -shards URL,URL,... [-addr HOST:PORT] [-shard-timeout D]
//	         [-confidence P] [-drain-timeout D] [-pprof HOST:PORT]
//
// With -pprof the runtime profiles (net/http/pprof) are served on a
// second listener at that address — off by default, and never on the
// query listener.
//
// The -shards list is ordered: shard i of the list must be the daemon
// ingesting with -shard i/n. A shard that is unreachable, times out, or
// fails internally degrades the answer instead of killing it: the
// response carries "degraded": true and "missing_shards", and the shard
// rejoins automatically on its next healthy reply — no coordinator
// restart.
//
// Every response carries the X-Bivoc-Generation header with the
// comma-joined per-shard generation vector ("-" for a missing shard).
// The coordinator keeps no results between requests: every query
// scatters, and each shard answers it from its current snapshot (and
// that snapshot's result cache), so an answer is never older than the
// snapshots the shards serve.
//
// SIGINT/SIGTERM shut the coordinator down gracefully: in-flight
// scatters drain and the process exits 0.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"bivoc"
	"bivoc/internal/mining"
	"bivoc/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8090", "HTTP listen address (use :0 for a free port)")
	shards := flag.String("shards", "", "comma-separated shard base URLs, in shard order (required)")
	shardTimeout := flag.Duration("shard-timeout", 5*time.Second, "per-shard request timeout; a slower shard is treated as down for that query")
	confidence := flag.Float64("confidence", mining.DefaultConfidence, "default association-interval confidence")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "graceful-shutdown drain bound")
	pprofAddr := flag.String("pprof", "", "serve /debug/pprof on this separate listen address (empty = off; use :0 for a free port)")
	flag.Parse()

	var urls []string
	for _, u := range strings.Split(*shards, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "bivocfed: -shards is required (comma-separated base URLs)")
		os.Exit(2)
	}

	c, err := bivoc.NewFedCoordinator(bivoc.FedConfig{
		Addr:         *addr,
		Shards:       urls,
		ShardTimeout: *shardTimeout,
		Confidence:   *confidence,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bivocfed:", err)
		os.Exit(1)
	}
	// Before Start: from the first line printed on, a signal drains.
	ctx, stop := server.NotifySignals()
	defer stop()
	if err := c.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "bivocfed:", err)
		os.Exit(1)
	}
	fmt.Printf("bivocfed: listening on %s (%d shards, timeout %v)\n",
		c.Addr(), len(urls), *shardTimeout)
	if err := server.RunUntilSignal(ctx, "bivocfed", *pprofAddr, *drainTimeout, c.Shutdown); err != nil {
		fmt.Fprintln(os.Stderr, "bivocfed:", err)
		os.Exit(1)
	}
}

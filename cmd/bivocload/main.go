// Command bivocload is the open-loop load harness for the BIVoC query
// daemons: the overload instrument. It synthesizes a pool of mixed
// queries, distinct under the daemon's cache key, from the target's own
// label vocabulary (discovered live via /v1/concepts), then sweeps
// offered arrival rates and batch sizes against a running bivocd daemon
// or bivocfed coordinator, reporting p50/p95/p99/p999 latency (measured
// from each request's *scheduled* arrival — coordinated omission
// corrected), error and degraded rates, and achieved-vs-offered
// throughput.
//
// Usage:
//
//	bivocload -target http://127.0.0.1:8080 [-qps 500,2000,8000]
//	          [-batch 1,32] [-duration 2s] [-workers 64] [-pool 256]
//	          [-seed 1] [-categories C,C] [-fields F,F] [-out FILE]
//
// It makes the offers past the capacity knee, which the closed-loop
// cmd/bivocbench deliberately never makes; the repository's recorded
// numbers are cmd/bivocbench's (BENCHMARK.json), not this command's
// output.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"bivoc/internal/load"
)

var (
	target     = flag.String("target", "", "base URL of a running bivocd or bivocfed (required)")
	qpsFlag    = flag.String("qps", "500,2000,8000", "comma-separated offered query rates to sweep")
	batchFlag  = flag.String("batch", "1,32", "comma-separated batch sizes to sweep (1 = single GETs)")
	duration   = flag.Duration("duration", 2*time.Second, "arrival schedule length per sweep cell")
	workers    = flag.Int("workers", 64, "client concurrency cap")
	pool       = flag.Int("pool", 256, "synthesized query pool size (distinct queries)")
	seed       = flag.Int64("seed", 1, "query synthesis seed")
	categories = flag.String("categories", "customer intention,place,vehicle type,value selling,discount", "comma-separated concept categories for vocabulary discovery")
	fields     = flag.String("fields", "outcome,agent,trained", "comma-separated structured fields for vocabulary discovery")
	outPath    = flag.String("out", "", "write the JSON report to this file (empty = stdout)")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bivocload:", err)
		os.Exit(1)
	}
}

// reportDescription heads the JSON report so the numbers explain their
// own methodology.
const reportDescription = "Open-loop load sweep (cmd/bivocload): arrivals pre-scheduled at the offered rate, latency measured from each request's scheduled arrival (coordinated-omission corrected), so a saturated target shows queueing delay in the percentiles instead of silently throttling the generator. The achieved-vs-offered knee is the target's capacity. The query pool is a dashboard-style blend synthesized from the target's live /v1/concepts vocabulary, distinct under the daemon's canonical cache key, so a pool larger than the result cache misses it on every cycle. batch=1 issues single GETs; batch=N groups N queries per /v1/batch POST at the same offered query rate."

// report is the JSON document -out (or stdout) receives: one run per
// (offered QPS, batch size) cell of the sweep.
type report struct {
	Description string        `json:"description"`
	Date        string        `json:"date"`
	GOOS        string        `json:"goos"`
	GOARCH      string        `json:"goarch"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	Target      string        `json:"target"`
	DurationMS  int64         `json:"duration_ms"`
	Workers     int           `json:"workers"`
	Pool        int           `json:"pool"`
	Seed        int64         `json:"seed"`
	Runs        []load.Report `json:"runs"`
}

func run() error {
	if *target == "" {
		return fmt.Errorf("-target is required: the base URL of a running bivocd or bivocfed")
	}
	qpsList, err := parseFloats(*qpsFlag)
	if err != nil {
		return fmt.Errorf("-qps: %w", err)
	}
	batchList, err := parseInts(*batchFlag)
	if err != nil {
		return fmt.Errorf("-batch: %w", err)
	}

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: *workers}}
	vocab, err := load.DiscoverVocab(client, *target, splitList(*categories), splitList(*fields))
	if err != nil {
		return err
	}
	queries, err := load.SynthesizeQueries(vocab, *pool, *seed)
	if err != nil {
		return err
	}
	rep := report{
		Description: reportDescription,
		Date:        time.Now().UTC().Format("2006-01-02"),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Target:      *target,
		DurationMS:  duration.Milliseconds(),
		Workers:     *workers,
		Pool:        *pool,
		Seed:        *seed,
	}
	for _, batch := range batchList {
		for _, qps := range qpsList {
			r, err := load.Run(context.Background(), load.Config{
				Base:     *target,
				Client:   client,
				QPS:      qps,
				Duration: *duration,
				Workers:  *workers,
				Batch:    batch,
				Queries:  queries,
			})
			if err != nil {
				return fmt.Errorf("qps=%g batch=%d: %w", qps, batch, err)
			}
			fmt.Fprintf(os.Stderr,
				"bivocload: batch=%-3d offered=%-7.0f achieved=%-7.0f p50=%dus p99=%dus p999=%dus errors=%d\n",
				batch, r.OfferedQPS, r.AchievedQPS, r.P50US, r.P99US, r.P999US, r.Errors)
			rep.Runs = append(rep.Runs, r)
		}
	}

	body, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	body = append(body, '\n')
	if *outPath == "" {
		_, err = os.Stdout.Write(body)
		return err
	}
	return os.WriteFile(*outPath, body, 0o644)
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range splitList(s) {
		f, err := strconv.ParseFloat(part, 64)
		if err != nil || f <= 0 {
			return nil, fmt.Errorf("bad rate %q", part)
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad batch size %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

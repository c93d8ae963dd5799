// Command bivocload is the open-loop load harness for the BIVoC query
// daemons. It synthesizes a mixed, realistic query stream from the
// target's own label vocabulary (discovered live via /v1/concepts),
// then sweeps offered arrival rates and batch sizes against a bivocd
// daemon or a bivocfed coordinator, reporting p50/p95/p99/p999 latency
// (measured from each request's *scheduled* arrival — coordinated
// omission corrected), error and degraded rates, and achieved-vs-
// offered throughput.
//
// Usage:
//
//	bivocload -target http://127.0.0.1:8080 [flags]   drive a running daemon
//	bivocload [-boot mono|fed|both] [flags]           self-boot and drive
//
// Without -target the harness boots its own fleet over a synthetic
// corpus: a single bivocd-equivalent server ("mono"), a sharded fleet
// behind a coordinator ("fed-<k>"), or both. This is the overload
// instrument — offers past the capacity knee, which the closed-loop
// cmd/bivocbench never makes; the repository's recorded numbers are
// cmd/bivocbench's (BENCHMARK.json), not this command's output.
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

	"bivoc/internal/annotate"
	"bivoc/internal/fed"
	"bivoc/internal/load"
	"bivoc/internal/mining"
	"bivoc/internal/server"
)

func main() {
	target := flag.String("target", "", "base URL of a running bivocd or bivocfed (empty = self-boot)")
	boot := flag.String("boot", "both", "self-boot targets when -target is empty: mono | fed | both")
	shards := flag.Int("shards", 4, "shard count for the self-booted federation")
	docs := flag.Int("docs", 20000, "synthetic corpus size for self-booted targets")
	qpsFlag := flag.String("qps", "500,2000,8000", "comma-separated offered query rates to sweep")
	countQPSFlag := flag.String("count-qps", "", "offered rates for the count mix (empty = use -qps); count queries are cheap, so their knee sits much higher")
	batchFlag := flag.String("batch", "1,32", "comma-separated batch sizes to sweep (1 = single GETs)")
	duration := flag.Duration("duration", 2*time.Second, "arrival schedule length per sweep cell")
	workers := flag.Int("workers", 64, "client concurrency cap")
	pool := flag.Int("pool", 256, "synthesized query pool size")
	mix := flag.String("mix", "mixed", "comma-separated query mixes to sweep: mixed (all endpoints) | count (single-dim counts, transport-dominated)")
	seed := flag.Int64("seed", 1, "query synthesis seed")
	categories := flag.String("categories", "topic,place", "comma-separated concept categories for vocabulary discovery")
	fields := flag.String("fields", "outcome,parity", "comma-separated structured fields for vocabulary discovery")
	out := flag.String("out", "", "write the JSON report to this file (empty = stdout)")
	flag.Parse()

	if err := run(options{
		target:     *target,
		boot:       *boot,
		shards:     *shards,
		docs:       *docs,
		qps:        *qpsFlag,
		countQPS:   *countQPSFlag,
		batch:      *batchFlag,
		duration:   *duration,
		workers:    *workers,
		pool:       *pool,
		mixes:      splitList(*mix),
		seed:       *seed,
		categories: splitList(*categories),
		fields:     splitList(*fields),
		out:        *out,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "bivocload:", err)
		os.Exit(1)
	}
}

type options struct {
	target     string
	boot       string
	shards     int
	docs       int
	qps        string
	countQPS   string
	batch      string
	duration   time.Duration
	workers    int
	pool       int
	mixes      []string
	seed       int64
	categories []string
	fields     []string
	out        string
}

// sweepRun is one cell of the report: a target crossed with one
// (query mix, offered QPS, batch size) triple. Memory is the target's
// /statsz memory section sampled right after the cell finished (absent
// when the target does not expose one, e.g. a coordinator), so a sweep
// doubles as a resident-size profile — the interesting read under
// -mmap, where heap should track the hot working set, not the corpus.
type sweepRun struct {
	Target string                  `json:"target"`
	Mix    string                  `json:"mix"`
	Memory *server.MemoryStatsJSON `json:"memory,omitempty"`
	load.Report
}

// reportDescription heads the JSON report so the numbers explain their
// own methodology.
const reportDescription = "Open-loop load sweep (cmd/bivocload): arrivals pre-scheduled at the offered rate, latency measured from each request's scheduled arrival (coordinated-omission corrected), so a saturated target shows queueing delay in the percentiles instead of silently throttling the generator. The achieved-vs-offered knee is the target's capacity. Targets are self-booted over the same synthetic corpus: one daemon (mono) and a sharded federation behind a coordinator (fed-k). The mixed sweep is the dashboard-style query blend synthesized from the live /v1/concepts vocabulary; the count sweep is single-dim /v1/count only — the transport-dominated workload where /v1/batch amortization shows up as a higher sustainable query rate per HTTP request. batch=1 issues single GETs; batch=N groups N queries per /v1/batch POST at the same offered query rate."

// report is the JSON document -out (or stdout) receives.
type report struct {
	Description string     `json:"description"`
	Date        string     `json:"date"`
	GOOS        string     `json:"goos"`
	GOARCH      string     `json:"goarch"`
	GOMAXPROCS  int        `json:"gomaxprocs"`
	Docs        int        `json:"docs,omitempty"`
	DurationMS  int64      `json:"duration_ms"`
	Workers     int        `json:"workers"`
	Pool        int        `json:"pool"`
	Seed        int64      `json:"seed"`
	Runs        []sweepRun `json:"runs"`
}

// target is one system under test, self-booted or external.
type target struct {
	name string
	base string
	stop func()
}

func run(o options) error {
	qpsList, err := parseFloats(o.qps)
	if err != nil {
		return fmt.Errorf("-qps: %w", err)
	}
	countQPSList := qpsList
	if o.countQPS != "" {
		if countQPSList, err = parseFloats(o.countQPS); err != nil {
			return fmt.Errorf("-count-qps: %w", err)
		}
	}
	batchList, err := parseInts(o.batch)
	if err != nil {
		return fmt.Errorf("-batch: %w", err)
	}
	if len(o.mixes) == 0 {
		return fmt.Errorf("-mix: empty list")
	}
	for _, mix := range o.mixes {
		if mix != "mixed" && mix != "count" {
			return fmt.Errorf("-mix %q: want mixed or count", mix)
		}
	}

	targets, err := resolveTargets(o)
	if err != nil {
		return err
	}
	defer func() {
		for _, t := range targets {
			if t.stop != nil {
				t.stop()
			}
		}
	}()

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: o.workers}}
	rep := report{
		Description: reportDescription,
		Date:        time.Now().UTC().Format("2006-01-02"),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		DurationMS:  o.duration.Milliseconds(),
		Workers:     o.workers,
		Pool:        o.pool,
		Seed:        o.seed,
	}
	if o.target == "" {
		rep.Docs = o.docs
	}

	for _, t := range targets {
		vocab, err := load.DiscoverVocab(client, t.base, o.categories, o.fields)
		if err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		for _, mix := range o.mixes {
			synthesize, rates := load.SynthesizeQueries, qpsList
			if mix == "count" {
				synthesize, rates = load.SynthesizeCountQueries, countQPSList
			}
			queries, err := synthesize(vocab, o.pool, o.seed)
			if err != nil {
				return fmt.Errorf("%s: %w", t.name, err)
			}
			for _, batch := range batchList {
				for _, qps := range rates {
					r, err := load.Run(context.Background(), load.Config{
						Base:     t.base,
						Client:   client,
						QPS:      qps,
						Duration: o.duration,
						Workers:  o.workers,
						Batch:    batch,
						Queries:  queries,
					})
					if err != nil {
						return fmt.Errorf("%s %s qps=%g batch=%d: %w", t.name, mix, qps, batch, err)
					}
					fmt.Fprintf(os.Stderr,
						"bivocload: %-6s %-5s batch=%-3d offered=%-7.0f achieved=%-7.0f p50=%dus p99=%dus p999=%dus errors=%d\n",
						t.name, mix, batch, r.OfferedQPS, r.AchievedQPS, r.P50US, r.P99US, r.P999US, r.Errors)
					rep.Runs = append(rep.Runs, sweepRun{Target: t.name, Mix: mix, Memory: fetchMemory(client, t.base), Report: r})
				}
			}
		}
	}

	body, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	body = append(body, '\n')
	if o.out == "" {
		_, err = os.Stdout.Write(body)
		return err
	}
	return os.WriteFile(o.out, body, 0o644)
}

// fetchMemory samples the target's /statsz memory section. Best-effort:
// a target without one (a coordinator, an older daemon) yields nil and
// the report cell simply omits the field.
func fetchMemory(client *http.Client, base string) *server.MemoryStatsJSON {
	resp, err := client.Get(base + "/statsz")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var ss struct {
		Memory *server.MemoryStatsJSON `json:"memory"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&ss) != nil {
		return nil
	}
	return ss.Memory
}

// resolveTargets returns the systems under test, booting local fleets
// when no external target was given.
func resolveTargets(o options) ([]target, error) {
	if o.target != "" {
		return []target{{name: "target", base: o.target}}, nil
	}
	corpus := loadCorpus(o.docs)
	var targets []target
	if o.boot == "mono" || o.boot == "both" {
		t, err := bootMono(corpus)
		if err != nil {
			return stopAll(targets, err)
		}
		targets = append(targets, t)
	}
	if o.boot == "fed" || o.boot == "both" {
		t, err := bootFed(corpus, o.shards)
		if err != nil {
			return stopAll(targets, err)
		}
		targets = append(targets, t)
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("-boot %q: want mono, fed, or both", o.boot)
	}
	return targets, nil
}

func stopAll(targets []target, err error) ([]target, error) {
	for _, t := range targets {
		if t.stop != nil {
			t.stop()
		}
	}
	return nil, err
}

// loadCorpus synthesizes the self-boot corpus: topic/place concepts,
// outcome/parity fields, a time bucket — the dimensional shape the
// serving benchmarks use.
func loadCorpus(n int) []mining.Document {
	topics := []string{"billing", "coverage", "roadside", "upgrade", "refund"}
	places := []string{"austin", "dallas", "boston", "seattle", "reno"}
	docs := make([]mining.Document, n)
	for i := range docs {
		parity := "even"
		if i%2 == 1 {
			parity = "odd"
		}
		concepts := []annotate.Concept{
			{Category: "topic", Canonical: topics[i%len(topics)]},
		}
		if i%3 == 0 {
			concepts = append(concepts, annotate.Concept{Category: "place", Canonical: places[(i/3)%len(places)]})
		}
		docs[i] = mining.Document{
			ID:       fmt.Sprintf("load-%07d", i),
			Concepts: concepts,
			Fields:   map[string]string{"parity": parity, "outcome": []string{"reservation", "unbooked", "service"}[i%3]},
			Time:     i / 100,
		}
	}
	return docs
}

func sliceSource(docs []mining.Document) server.DocSource {
	return func(ctx context.Context, _ func(string) bool, emit func(mining.Document) error) error {
		for _, d := range docs {
			if err := emit(d); err != nil {
				return err
			}
		}
		return nil
	}
}

// startServer boots one sealed server over src.
func startServer(src server.DocSource) (*server.Server, error) {
	s, err := server.New(server.Config{Addr: "127.0.0.1:0", Source: src})
	if err != nil {
		return nil, err
	}
	if err := s.Start(); err != nil {
		return nil, err
	}
	select {
	case <-s.IngestDone():
	case <-time.After(120 * time.Second):
		return nil, fmt.Errorf("ingest did not seal in time")
	}
	return s, nil
}

func shutdown(stop func(ctx context.Context) error) {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	stop(ctx)
}

// bootMono boots a single daemon over the whole corpus.
func bootMono(docs []mining.Document) (target, error) {
	s, err := startServer(sliceSource(docs))
	if err != nil {
		return target{}, fmt.Errorf("booting mono: %w", err)
	}
	return target{
		name: "mono",
		base: "http://" + s.Addr(),
		stop: func() { shutdown(s.Shutdown) },
	}, nil
}

// bootFed boots k shard daemons over the partitioned corpus plus a
// coordinator in front.
func bootFed(docs []mining.Document, k int) (target, error) {
	if k < 1 {
		k = 1
	}
	var stops []func()
	stopFleet := func() {
		for _, stop := range stops {
			stop()
		}
	}
	addrs := make([]string, k)
	for i := 0; i < k; i++ {
		s, err := startServer(fed.PartitionSource(sliceSource(docs), i, k))
		if err != nil {
			stopFleet()
			return target{}, fmt.Errorf("booting shard %d/%d: %w", i, k, err)
		}
		stops = append(stops, func() { shutdown(s.Shutdown) })
		addrs[i] = "http://" + s.Addr()
	}
	c, err := fed.NewCoordinator(fed.Config{Addr: "127.0.0.1:0", Shards: addrs})
	if err == nil {
		err = c.Start()
	}
	if err != nil {
		stopFleet()
		return target{}, fmt.Errorf("booting coordinator: %w", err)
	}
	stops = append([]func(){func() { shutdown(c.Shutdown) }}, stops...)
	return target{
		name: fmt.Sprintf("fed-%d", k),
		base: "http://" + c.Addr(),
		stop: stopFleet,
	}, nil
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

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bivoc/internal/core"
	"bivoc/internal/server"
)

// runConfig is one invocation: which workload, from which seed, how
// long to measure, at which sizes, and where temp data may be written.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	z        sizes
	tmp      string // scratch directory inside the checkout
}

// phase is what measuring one workload yields: the end-to-end metrics,
// the checks made, and the counters the traced run reports per layer.
type phase struct {
	tally
	e2e          metricSet
	ops          int          // operations completed in the measured phase
	proc         procCounters // what the process spent during the measured phase
	windowRates  []float64    // throughput of every window (or job), in the order run
	windowSpread float64      // IQR/median of those
	allRate      float64      // ops/s over all windows pooled, beside the quiet quartile
	samples      int          // latency samples behind the percentiles
	serverHit    float64      // result-cache hits / lookups; 0 when the workload made no lookup
	fedHit       float64      // coordinator-cache hits / lookups; 0 likewise
}

// noisyAbove is the window spread past which a run says that the host,
// not the program, set its numbers.
const noisyAbove = 0.15

func runWorkload(cfg runConfig) (*phase, error) {
	switch cfg.workload {
	case "mono_miss", "mono_hot", "fed_batch":
		return runServing(cfg)
	case "ingest_serve":
		return runIngest(cfg)
	case "voc_batch":
		return runVoc(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// finish turns measured windows into the latency and throughput metrics:
// each is the quiet quartile over the windows of the window's own value.
func (p *phase) finish(all []window, setups []time.Duration, heapMB float64) {
	p.allRate = pooledRate(all)
	p.windowRates = rates(all)
	p.windowSpread = spread(p.windowRates)
	for _, w := range all {
		p.samples += len(w.lats)
		p.ops += w.ops - w.failed
		p.add(w.ops, w.failed, "the measured phase")
	}
	secs := make([]float64, len(setups))
	for i, d := range setups {
		secs[i] = d.Seconds()
	}
	p.e2e = metricSet{
		"ops_per_s":    quiet(all, window.rate, true),
		"lat_p50_ms":   quiet(all, func(w window) float64 { return w.quantile(0.50) }, false),
		"lat_p95_ms":   quiet(all, func(w window) float64 { return w.quantile(tail) }, false),
		"heap_live_mb": heapMB,
		"setup_s":      median(secs),
	}
}

// ---- sealed-corpus serving workloads ----

// serving describes one closed-loop workload over a sealed corpus.
type serving struct {
	fleet bool                             // drive the coordinator, not the single daemon
	ops   func(pool []query, z sizes) []op // the sequence every window replays once
	hitOK func(ratio float64) bool         // the precondition on the driven cache's hit ratio
	want  string
}

var servings = map[string]serving{
	"mono_miss": {
		ops:   func(pool []query, _ sizes) []op { return getOps(pool) },
		hitOK: func(r float64) bool { return r < 0.02 }, want: "below 0.02",
	},
	"mono_hot": {
		// One cycle of the panel lasts two milliseconds; a window is hotCycles of them.
		ops: func(pool []query, z sizes) []op {
			panel := getOps(pool[:z.panel])
			ops := make([]op, 0, len(panel)*z.hotCycles)
			for i := 0; i < z.hotCycles; i++ {
				ops = append(ops, panel...)
			}
			return ops
		},
		hitOK: func(r float64) bool { return r > 0.99 }, want: "above 0.99",
	},
	"fed_batch": {
		fleet: true,
		ops:   func(pool []query, z sizes) []op { return batchOps(pool, z.batch) },
		hitOK: func(r float64) bool { return r < 0.02 }, want: "below 0.02",
	},
}

// cacheCounts reads the result-cache counters of the daemons behind tg,
// and the coordinator's own cache when tg is a fleet.
func cacheCounts(c *client, tg *target) (srvHits, srvLookups, fedHits, fedLookups uint64, err error) {
	if tg.mono != nil {
		h, m := tg.mono.CacheStats()
		return h, h + m, 0, 0, nil
	}
	for _, s := range tg.shards {
		h, m := s.CacheStats()
		srvHits, srvLookups = srvHits+h, srvLookups+h+m
	}
	body, err := fetchPlain(c, tg.base, op{path: "/statsz", n: 1})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	var st struct {
		FedCache server.CacheStatsJSON `json:"fed_cache"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("decoding coordinator /statsz: %w", err)
	}
	return srvHits, srvLookups, st.FedCache.Hits, st.FedCache.Hits + st.FedCache.Misses, nil
}

func ratio(hits, lookups uint64) float64 {
	if lookups == 0 {
		return 0
	}
	return float64(hits) / float64(lookups)
}

// setUpServing generates the corpus and the pool, boots what the
// workload drives, passes the verification gate and warms up. It is
// timed as a whole: that is setup_s.
func setUpServing(cfg runConfig, w serving, t *tally, clients []*client) (*target, []op, error) {
	z := cfg.z
	docs, oracle, err := buildCorpus(cfg.seed, z.callsPerDay, z.days)
	if err != nil {
		return nil, nil, err
	}
	pool, err := synthesizePool(oracle, z.pool, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	mono, err := bootMono(docs, z.swapEvery(), nil)
	if err != nil {
		return nil, nil, err
	}
	driven := mono
	var fleet *target
	if w.fleet {
		// The single daemon is the fleet's reference in the gate and is
		// stopped before anything is measured.
		defer mono.stop()
		if fleet, err = bootFed(docs, z.swapEvery(), nil); err != nil {
			return nil, nil, err
		}
		driven = fleet
	}
	gate(t, mono, fleet, oracle, sample(pool, z.gate), z)
	ops := w.ops(pool, z)
	attempted, failed := issue(driven.base, clients, ops, max(z.warmOps/ops[0].n, 1))
	t.add(attempted, failed, "the warm-up")
	return driven, ops, nil
}

func runServing(cfg runConfig) (*phase, error) {
	w := servings[cfg.workload]
	p := &phase{}
	clients := newClients(2)
	defer closeAll(clients)
	var tg *target
	var ops []op
	var setups []time.Duration
	for i := 0; i < cfg.z.setups; i++ {
		if tg != nil {
			tg.stop()
			runtime.GC()
		}
		start := time.Now()
		var err error
		if tg, ops, err = setUpServing(cfg, w, &p.tally, clients); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
	}
	defer tg.stop()

	h0, l0, fh0, fl0, err := cacheCounts(clients[0], tg)
	if err != nil {
		return nil, err
	}
	before, err := readProc()
	if err != nil {
		return nil, err
	}
	windows := measureWindows(tg.base, clients, ops, cfg.seconds)
	after, err := readProc()
	if err != nil {
		return nil, err
	}
	p.proc = after.minus(before)
	heapMB := liveHeapMB() // the targets are still up: this is what serving the corpus holds
	h1, l1, fh1, fl1, err := cacheCounts(clients[0], tg)
	if err != nil {
		return nil, err
	}
	p.finish(windows, setups, heapMB)
	p.serverHit, p.fedHit = ratio(h1-h0, l1-l0), ratio(fh1-fh0, fl1-fl0)
	driven := p.serverHit
	if w.fleet {
		driven = p.fedHit
	}
	p.check(w.hitOK(driven), "%s: cache hit ratio %.4f, want %s", cfg.workload, driven, w.want)
	return p, nil
}

// ---- ingest beside reads ----

// The ingest job is read by two probers that each wait proberThink
// between a reply and the next request: dashboards polling, not a load
// test, but enough reads (about 700 a second beside the pipeline, as
// many a job) for each job's own tail percentile.
const proberThink = 250 * time.Microsecond

// ingestStats is one ingest job: boot the real call pipeline on a fresh
// data directory, ingest to the seal while the probers read, shut down,
// boot again on the same directory.
type ingestStats struct {
	setup, ingest, restart time.Duration
	docs                   int
	prober                 window
	proc                   procCounters // spent between Start and the seal
	heapMB                 float64
	diskBytes              int64
	statsz                 server.StatszResponse // at the seal, before shutdown
}

func ingestConfig(cfg runConfig, dir string) core.ServeConfig {
	sc := core.DefaultServeConfig()
	sc.Analysis = analysisConfig(cfg.seed, cfg.z.ingestPerDay, cfg.z.days)
	sc.Addr = "127.0.0.1:0"
	sc.SwapInterval = 0 // publish by document count only, so the publish count repeats
	sc.SwapEvery = cfg.z.ingestSwap
	sc.DataDir = dir
	sc.WALSyncEvery = 64
	sc.MapSegments = true
	return sc
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// panelBodies fetches every op's canonical body.
func panelBodies(c *client, base string, ops []op) ([][]byte, error) {
	out := make([][]byte, len(ops))
	for i, o := range ops {
		body, err := fetchPlain(c, base, o)
		if err != nil {
			return nil, err
		}
		out[i] = canonical(body)
	}
	return out, nil
}

func ingestJob(cfg runConfig, t *tally) (ingestStats, error) {
	var j ingestStats
	dir, err := os.MkdirTemp(cfg.tmp, "ingest-")
	if err != nil {
		return j, err
	}
	defer os.RemoveAll(dir)
	probers := newClients(2)
	defer closeAll(probers)
	c := probers[0]

	// Set-up: the panel comes from a small corpus of the same world (the
	// vocabulary does not depend on how many calls are generated), which
	// also warms the pipeline's code; then the daemon is assembled, which
	// generates the calls it will ingest.
	start := time.Now()
	_, oracle, err := buildCorpus(cfg.seed, vocabCallsPerDay, cfg.z.days)
	if err != nil {
		return j, err
	}
	panel, err := synthesizePool(oracle, cfg.z.ingestPanel, cfg.seed)
	if err != nil {
		return j, err
	}
	ops := getOps(panel)
	sc := ingestConfig(cfg, dir)
	s, err := core.NewServeServer(sc)
	if err != nil {
		return j, err
	}
	j.setup = time.Since(start)

	counted, err := readProc()
	if err != nil {
		return j, err
	}
	start = time.Now()
	if err := s.Start(); err != nil {
		return j, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	probed := make(chan window, 1)
	go func() { probed <- closedLoop(ctx, "http://"+s.Addr(), probers, ops, proberThink, 0) }()
	<-s.IngestDone()
	j.ingest = time.Since(start)
	cancel()
	j.prober = <-probed
	stopped := false
	defer func() {
		if !stopped {
			shutdown(s.Shutdown)
		}
	}()
	if err := s.IngestErr(); err != nil {
		return j, fmt.Errorf("ingest: %w", err)
	}
	now, err := readProc()
	if err != nil {
		return j, err
	}
	j.proc = now.minus(counted)

	j.heapMB = liveHeapMB() // the daemon is still up, serving the sealed corpus
	_, j.docs, _ = s.SnapshotInfo()
	want := cfg.z.ingestPerDay * cfg.z.days
	t.check(j.docs == want, "ingest acknowledged %d documents, want %d", j.docs, want)
	base := "http://" + s.Addr()
	raw, err := fetchPlain(c, base, op{path: "/statsz", n: 1})
	if err != nil {
		return j, err
	}
	if err := json.Unmarshal(raw, &j.statsz); err != nil {
		return j, fmt.Errorf("decoding /statsz: %w", err)
	}
	// What must read the same after the restart: the first panel queries the
	// probers cycle (the pool's mix is the same in every prefix).
	checked := ops[:min(cfg.z.panel, len(ops))]
	before, err := panelBodies(c, base, checked)
	if err != nil {
		return j, err
	}
	shutdown(s.Shutdown)
	stopped = true
	if err := s.PersistErr(); err != nil {
		return j, fmt.Errorf("persistence: %w", err)
	}
	if j.diskBytes, err = dirBytes(dir); err != nil {
		return j, err
	}

	// Restart on the populated directory: the time to the first answer
	// that equals what the daemon said before it went down.
	start = time.Now()
	s2, err := core.NewServeServer(sc)
	if err != nil {
		return j, err
	}
	if err := s2.Start(); err != nil {
		return j, err
	}
	defer shutdown(s2.Shutdown)
	base = "http://" + s2.Addr()
	first := 0
	for i, q := range panel[:len(checked)] {
		if q.Endpoint == "count" {
			first = i
			break
		}
	}
	for deadline := start.Add(time.Minute); ; {
		body, err := fetchPlain(c, base, ops[first])
		if err == nil && string(canonical(body)) == string(before[first]) {
			break
		}
		if time.Now().After(deadline) {
			return j, fmt.Errorf("restarted daemon did not answer %s as before within a minute", ops[first].path)
		}
		time.Sleep(time.Millisecond)
	}
	j.restart = time.Since(start)
	<-s2.IngestDone()
	_, docs2, _ := s2.SnapshotInfo()
	t.check(docs2 == j.docs, "restart serves %d documents, %d were acknowledged", docs2, j.docs)
	after, err := panelBodies(c, base, checked)
	if err != nil {
		return j, err
	}
	for i := range checked {
		t.check(string(after[i]) == string(before[i]), "%s answers differently after restart", checked[i].path)
	}
	return j, nil
}

func runIngest(cfg runConfig) (*phase, error) {
	p := &phase{}
	var jobs []ingestStats
	for measured := time.Duration(0); measured.Seconds() < cfg.seconds || len(jobs) < 2; {
		j, err := ingestJob(cfg, &p.tally)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
		measured += j.ingest
	}
	// One job is one window: documents over ingest time, with the
	// prober's latencies as its samples.
	all := make([]window, len(jobs))
	var setups []time.Duration
	var heaps []float64
	for i, j := range jobs {
		all[i] = window{ops: j.docs, dur: j.ingest, lats: j.prober.lats}
		p.add(j.prober.ops, j.prober.failed, "the prober's reads")
		setups = append(setups, j.setup)
		heaps = append(heaps, j.heapMB)
		p.proc = p.proc.plus(j.proc)
	}
	p.finish(all, setups, median(heaps))
	return p, nil
}

// ---- the batch voice-of-customer job ----

func vocConfig(seed int64, scale float64) core.ChurnExperimentConfig {
	vc := core.DefaultChurnExperimentConfig()
	vc.Channel = ""
	vc.World.Seed = uint64(seed)
	vc.World.NumCustomers = int(float64(vc.World.NumCustomers) * scale)
	vc.World.Emails = int(float64(vc.World.Emails) * scale)
	vc.World.SMS = int(float64(vc.World.SMS) * scale)
	return vc
}

// vocJob runs the churn experiment once and checks its accounting. It
// also returns the job's peak live heap.
func vocJob(seed int64, scale float64, t *tally) (window, float64, error) {
	peak := peakLiveHeap()
	start := time.Now()
	res, err := core.RunChurnExperimentContext(context.Background(), vocConfig(seed, scale))
	dur := time.Since(start)
	heapMB := peak()
	if err != nil {
		return window{}, 0, err
	}
	sum := res.Spam + res.NonEnglish + res.Empty + res.Linked + res.Unlinkable + res.DeadLettered
	t.check(sum == res.Messages, "churn experiment accounts for %d of %d messages", sum, res.Messages)
	t.check(res.LinkCorrect >= 0.90, "churn experiment linked %.3f of messages to the right subscriber, want 0.90", res.LinkCorrect)
	return window{ops: res.Messages, dur: dur, lats: []time.Duration{dur}}, heapMB, nil
}

func runVoc(cfg runConfig) (*phase, error) {
	p := &phase{}
	var setups []time.Duration
	for i := 0; i < cfg.z.setups; i++ {
		// Set-up is a warm-up job on a small world whose result is checked.
		start := time.Now()
		if _, _, err := vocJob(cfg.seed, cfg.z.vocWarmScale, &p.tally); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
	}
	before, err := readProc()
	if err != nil {
		return nil, err
	}
	var jobs []window
	var heaps []float64
	for measured := time.Duration(0); measured.Seconds() < cfg.seconds || len(jobs) < 2; {
		w, heapMB, err := vocJob(cfg.seed, cfg.z.vocScale, &p.tally)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, w)
		heaps = append(heaps, heapMB)
		measured += w.dur
	}
	after, err := readProc()
	if err != nil {
		return nil, err
	}
	p.proc = after.minus(before)
	p.finish(jobs, setups, median(heaps))
	return p, nil
}

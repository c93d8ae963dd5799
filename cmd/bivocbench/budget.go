package main

import (
	"fmt"
	"net/url"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"bivoc/internal/clean"
	"bivoc/internal/core"
	"bivoc/internal/linker"
	"bivoc/internal/mining"
	"bivoc/internal/server"
	"bivoc/internal/store"
	"bivoc/internal/synth"
)

// The layer budget is the traced half of the benchmark: a fixed sample
// of the pool goes through every layer, one operation at a time, with a
// span around each call the benchmark makes into a layer's public
// surface. HTTP and handler spans nest for real (the benchmark hosts
// each daemon's handler on a listener of its own, inside a span). Below
// the handler nothing can be wrapped from outside, so the mining numbers
// are the same queries run as direct calls on indexes the benchmark
// builds from the same documents in the same segment layout.

// repeats is how often a direct call is repeated; the minimum is kept.
const repeats = 5

var endpoints = []string{"count", "trend", "associate", "relfreq", "drilldown", "concepts"}

func minDur(a, b time.Duration) time.Duration { return min(a, b) }
func maxDur(a, b time.Duration) time.Duration { return max(a, b) }
func sumDur(a, b time.Duration) time.Duration { return a + b }

// pass is one sequential run of the sample against one listener.
type pass struct {
	lats    []time.Duration // client-observed, one per op
	replies []reply
	lo, hi  int // the recorder's operation numbers, when traced
}

// runPass sends every op once over base, one at a time. With a name it
// puts each inside a client span of that name; without, it only times.
func runPass(rec *recorder, c *client, base, name string, ops []op, t *tally) pass {
	p := pass{lats: make([]time.Duration, len(ops)), replies: make([]reply, len(ops))}
	for i, o := range ops {
		id := 0
		if name != "" {
			p.hi = rec.nextOp()
			if i == 0 {
				p.lo = p.hi
			}
			id = rec.begin(name, "")
		}
		start := time.Now()
		r, err := c.do(base, o)
		p.lats[i] = time.Since(start)
		if name != "" {
			rec.end(id)
		}
		t.add(o.n, failures(r, err, o.n), "the traced sample")
		p.replies[i] = r
	}
	return p
}

// plan is a query parsed the way the daemon's handlers parse it, ready
// to run against any mining.Querier.
type plan struct {
	endpoint   string
	dims, cols []mining.Dim
	category   string
	field      string
	confidence float64
	limit      int
}

func parsePlan(q query) (plan, error) {
	p := plan{endpoint: q.Endpoint, confidence: 0.95, limit: 50}
	v := url.Values(q.Params)
	parse := func(labels []string) ([]mining.Dim, error) {
		out := make([]mining.Dim, len(labels))
		for i, l := range labels {
			d, err := mining.ParseDim(l)
			if err != nil {
				return nil, err
			}
			out[i] = d
		}
		return out, nil
	}
	var err error
	switch q.Endpoint {
	case "count", "trend":
		p.dims, err = parse(v["dim"])
	case "associate", "drilldown":
		if p.dims, err = parse(v["row"]); err == nil {
			p.cols, err = parse(v["col"])
		}
		if s := v.Get("confidence"); s != "" && err == nil {
			p.confidence, err = strconv.ParseFloat(s, 64)
		}
		if s := v.Get("limit"); s != "" && err == nil {
			p.limit, err = strconv.Atoi(s)
		}
	case "relfreq":
		p.category = v.Get("category")
		p.dims, err = parse(v["featured"])
	case "concepts":
		p.category, p.field = v.Get("category"), v.Get("field")
	default:
		err = fmt.Errorf("unknown endpoint %q", q.Endpoint)
	}
	return p, err
}

var sink int // keeps the direct calls' results alive

// run makes the Querier calls the daemon's handler makes for this query.
func (p plan) run(q mining.Querier) {
	switch p.endpoint {
	case "count":
		sink += q.Len()
		for _, d := range p.dims {
			sink += q.Count(d)
		}
	case "trend":
		sink += len(q.Trend(p.dims[0]))
	case "associate":
		sink += len(q.AssociateN(p.dims, p.cols, p.confidence, 0).Cells)
	case "relfreq":
		sink += len(q.RelativeFrequency(p.category, p.dims[0]))
	case "drilldown":
		sink += len(q.DrillDown(p.dims[0], p.cols[0]))
	case "concepts":
		if p.category != "" {
			sink += len(q.ConceptsInCategory(p.category))
		} else {
			sink += len(q.FieldValues(p.field))
		}
	}
}

func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func sealSegment(docs []mining.Document) *mining.Index {
	si := mining.NewStreamIndex()
	si.AddBatch(docs)
	return si.Seal()
}

// byEndpoint writes prefix+<endpoint>+suffix = median of the values whose
// query has that endpoint.
func byEndpoint(m metricSet, prefix, suffix string, qs []query, vals []time.Duration, unit func(time.Duration) float64) {
	for _, ep := range endpoints {
		var group []time.Duration
		for i, q := range qs {
			if q.Endpoint == ep && i < len(vals) {
				group = append(group, vals[i])
			}
		}
		m[prefix+ep+suffix] = unit(p50(group))
	}
}

// runBudget measures every per-layer metric that does not depend on
// which workload is being traced.
func runBudget(cfg runConfig, rec *recorder, t *tally) (metricSet, error) {
	z := cfg.z
	m := metricSet{}
	c := newClient()
	defer closeAll([]*client{c})

	// synth and the serving corpus.
	start := time.Now()
	world, err := synth.NewCarRentalWorld(analysisConfig(cfg.seed, z.callsPerDay, z.days).World)
	if err != nil {
		return nil, err
	}
	world.GenerateCalls(0, z.days)
	m["synth.carrental_world_s"] = time.Since(start).Seconds()
	docs, oracle, err := buildCorpus(cfg.seed, z.callsPerDay, z.days)
	if err != nil {
		return nil, err
	}
	pool, err := synthesizePool(oracle, z.pool, cfg.seed)
	if err != nil {
		return nil, err
	}
	qs := pool[:z.traceOps]
	ops := getOps(qs)
	evict := getOps(pool[z.traceOps:min(z.traceOps+512, len(pool))])
	batches := batchOps(qs, z.batch)

	mono, err := bootMono(docs, z.swapEvery(), rec)
	if err != nil {
		return nil, err
	}
	defer mono.stop()
	fleet, err := bootFed(docs, z.swapEvery(), rec)
	if err != nil {
		return nil, err
	}
	defer fleet.stop()
	// evictAll pushes the sample out of every result cache by asking for
	// twice the cache's capacity of other queries, unrecorded.
	evictAll := func() {
		was := rec.on.Swap(false)
		for _, base := range []string{mono.base, fleet.base} {
			attempted, failed := issue(base, []*client{c}, evict, len(evict))
			t.add(attempted, failed, "evicting the sample")
		}
		rec.on.Store(was)
	}

	// server: the sample against a cold cache and again against a warm
	// one (the sample is as large as the cache, so the second pass hits on
	// every op), with an untraced cold pass on the daemon's own listener
	// before and after: the traced median against theirs is the overhead.
	evictAll() // also warms the process and opens the connections
	plainA := runPass(rec, c, mono.base, "", ops, t)
	evictAll()
	rec.on.Store(true)
	rec.suffix("_miss")
	miss := runPass(rec, c, mono.traced, "server.http", ops, t)
	rec.suffix("_hit")
	runPass(rec, c, mono.traced, "server.http", ops, t)
	evictAll()
	plainB := runPass(rec, c, mono.base, "", ops, t)
	evictAll()
	rec.suffix("_batch")
	runPass(rec, c, mono.traced, "server.http", batches, t)
	// fed: the same sample as GETs and as batches through the coordinator.
	rec.suffix("")
	scatter := runPass(rec, c, fleet.traced, "fed.http", ops, t)
	evictAll()
	rec.suffix("_batch")
	runPass(rec, c, fleet.traced, "fed.http", batches, t)
	rec.suffix("")
	rec.on.Store(false)

	dur, self := rec.byName(false), rec.byName(true)
	handlerMiss := rec.perOp("server.handler_miss", miss.lo, miss.hi, sumDur)
	plain := (ms(p50(plainA.lats)) + ms(p50(plainB.lats))) / 2
	m["load.trace_overhead_pct"] = (ms(p50(miss.lats)) - plain) / plain * 100
	m["server.http_miss_ms"] = ms(p50(dur["server.http_miss"]))
	m["server.http_hit_ms"] = ms(p50(dur["server.http_hit"]))
	m["server.handler_miss_ms"] = ms(p50(handlerMiss))
	m["server.handler_hit_ms"] = ms(p50(dur["server.handler_hit"]))
	m["server.transport_self_ms"] = ms(p50(append(self["server.http_miss"], self["server.http_hit"]...)))
	byEndpoint(m, "server.", "_ms", qs, handlerMiss, ms)
	var wire, plainBytes float64
	onWire := make([]float64, len(miss.replies))
	for i, r := range miss.replies {
		body, err := r.plain()
		if err != nil {
			return nil, fmt.Errorf("decoding a sampled reply: %w", err)
		}
		wire, plainBytes = wire+float64(len(r.body)), plainBytes+float64(len(body))
		onWire[i] = float64(len(r.body))
	}
	m["server.body_bytes_p50"] = median(onWire)
	m["server.gzip_ratio"] = plainBytes / wire
	m["server.batch32_ms"] = ms(p50(dur["server.http_batch"]))
	m["server.batch_per_sub_ms"] = m["server.batch32_ms"] / float64(z.batch)

	m["fed.http_ms"] = ms(p50(dur["fed.http"]))
	m["fed.handler_ms"] = ms(p50(dur["fed.handler"]))
	m["fed.self_ms"] = ms(p50(self["fed.handler"]))
	m["fed.slowest_shard_ms"] = ms(p50(rec.perOp("fed.shard", scatter.lo, scatter.hi, maxDur)))
	m["fed.sum_shard_ms"] = ms(p50(rec.perOp("fed.shard", scatter.lo, scatter.hi, sumDur)))
	m["fed.tax_ratio"] = m["fed.http_ms"] / m["server.http_miss_ms"]
	m["fed.batch32_ms"] = ms(p50(dur["fed.http_batch"]))
	m["fed.batch_vs_mono_ratio"] = m["fed.batch32_ms"] / m["server.batch32_ms"]
	m["fed.shard_requests_per_op"] = float64(len(dur["fed.shard"])) / float64(len(ops))
	degraded := 0
	for _, r := range scatter.replies {
		if strings.Contains(r.header.Get(server.GenerationHeader), "-") {
			degraded++
		}
	}
	m["fed.degraded"] = float64(degraded)

	// The gate runs after the traced passes so that it cannot warm them.
	gate(t, mono, fleet, oracle, sample(pool, z.gate), z)

	// mining: the sample as direct calls on a twin of the daemon's
	// segment set, on each segment alone, and on one merged index.
	segs := make([]*mining.Index, z.segments)
	var seal []time.Duration
	for i := range segs {
		part := docs[i*z.swapEvery() : (i+1)*z.swapEvery()]
		start := time.Now()
		segs[i] = sealSegment(part)
		seal = append(seal, time.Since(start))
	}
	perKdoc := func(d time.Duration, n int) float64 { return ms(d) / float64(n) * 1000 }
	m["mining.seal_ms_per_kdoc"] = perKdoc(p50(seal), z.swapEvery())
	set := mining.NewSegmentSet(segs...)
	start = time.Now()
	merged := mining.MergeSegments(segs...)
	m["mining.merge_segments_ms_per_kdoc"] = perKdoc(time.Since(start), len(docs))
	plans := make([]plan, len(qs))
	var parse []time.Duration
	for i, q := range qs {
		start := time.Now()
		if plans[i], err = parsePlan(q); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", q.path(), err)
		}
		parse = append(parse, time.Since(start))
	}
	m["mining.parse_dim_us"] = us(p50(parse))
	timed := func(name string, f func()) {
		id := rec.begin(name, "")
		f()
		rec.end(id)
	}
	rec.on.Store(true)
	lo := 0
	for i, p := range plans {
		if n := rec.nextOp(); i == 0 {
			lo = n
		}
		for r := 0; r < repeats; r++ {
			timed("mining.query", func() { p.run(set) })
			timed("mining.mono_query", func() { p.run(merged) })
			timed("mining.segment_walk", func() {
				for _, seg := range segs {
					p.run(seg)
				}
			})
		}
	}
	rec.on.Store(false)
	hi := lo + len(plans) - 1
	query, monoQuery, walk := rec.perOp("mining.query", lo, hi, minDur), rec.perOp("mining.mono_query", lo, hi, minDur), rec.perOp("mining.segment_walk", lo, hi, minDur)
	m["mining.query_ms"] = ms(p50(query))
	m["mining.mono_query_ms"] = ms(p50(monoQuery))
	m["mining.fanin_ratio"] = float64(sumAll(query)) / float64(sumAll(monoQuery))
	m["mining.segment_walk_ms"] = ms(p50(walk))
	// The median op is a count whose merge is eight additions, so the
	// merge's own time is given as a mean over the sample.
	m["mining.merge_self_ms"] = ms(sumAll(query)-sumAll(walk)) / float64(len(qs))
	serverSelf := make([]time.Duration, len(qs))
	for i := range qs {
		serverSelf[i] = handlerMiss[i] - query[i]
	}
	m["server.self_miss_ms"] = ms(p50(serverSelf))
	byEndpoint(m, "mining.", "_us", qs, query, us)
	for name, q := range map[string]mining.Querier{"mining.allocs_per_query": set, "mining.mono_allocs_per_query": merged} {
		before := heapObjects()
		for _, p := range plans {
			p.run(q)
		}
		m[name] = float64(heapObjects()-before) / float64(len(plans))
	}

	if err := storeProbe(cfg, m, segs, docs, plans); err != nil {
		return nil, err
	}

	// pipeline, and the serving counters of a daemon that ingests: one
	// ingest job, read at its seal.
	job, err := ingestJob(cfg, t)
	if err != nil {
		return nil, err
	}
	m["pipeline.retries"], m["pipeline.dead_letters"] = 0, 0
	for _, st := range job.statsz.Pipeline {
		m["pipeline."+st.Name+"_us_per_doc"] = us(st.AvgLatency)
		m["pipeline.retries"] += float64(st.Retries)
		m["pipeline.dead_letters"] += float64(st.DeadLetters)
	}
	m["server.publishes"] = float64(job.statsz.Generation)
	m["server.compactions"] = float64(job.statsz.Segments.Compactions)
	m["server.segments_final"] = float64(job.statsz.Segments.Count)
	m["store.disk_bytes_per_doc"] = float64(job.diskBytes) / float64(job.docs)
	m["store.restart_s"] = job.restart.Seconds()

	// annotate: the annotation engine on sampled reference transcripts.
	en := core.BuildCarRentalAnnotator()
	calls := world.Calls
	n, concepts := min(512, len(calls)), 0
	start = time.Now()
	for i := 0; i < n; i++ {
		concepts += len(core.AnnotateTranscript(en, calls[i*len(calls)/n].Transcript))
	}
	m["annotate.us_per_doc"] = us(time.Since(start)) / float64(n)
	m["annotate.concepts_per_doc"] = float64(concepts) / float64(n)

	return m, vocProbe(cfg, m)
}

func sumAll(ds []time.Duration) (total time.Duration) {
	for _, d := range ds {
		total += d
	}
	return total
}

// storeProbe times the persistence layer's public calls on a directory
// of its own: the WAL at the ingest job's sync cadence, segment writes,
// a compaction's replace, and both ways of opening what was written.
func storeProbe(cfg runConfig, m metricSet, segs []*mining.Index, docs []mining.Document, plans []plan) error {
	dir, err := os.MkdirTemp(cfg.tmp, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{SyncEvery: 64})
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			st.Close()
		}
	}()
	n := min(cfg.z.probeDocs, len(docs))
	start := time.Now()
	for _, d := range docs[:n] {
		if err := st.AppendWAL(d); err != nil {
			return fmt.Errorf("store probe: %w", err)
		}
	}
	if err := st.SyncWAL(); err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	m["store.wal_append_us_per_doc"] = us(time.Since(start)) / float64(n)
	m["store.wal_bytes_per_doc"] = float64(st.Stats().WALBytes) / float64(n)

	var gens []uint64
	start = time.Now()
	for _, seg := range segs[:2] {
		stats, err := st.AppendSegment(seg)
		if err != nil {
			return fmt.Errorf("store probe: %w", err)
		}
		gens = append(gens, stats.SegmentGen)
	}
	written := segs[0].Len() + segs[1].Len()
	m["store.segment_write_ms_per_kdoc"] = ms(time.Since(start)) / float64(written) * 1000
	merged := mining.MergeSegments(segs[0], segs[1])
	start = time.Now()
	if _, err := st.ReplaceSegments(gens, merged); err != nil {
		return fmt.Errorf("store probe: %w", err)
	}
	m["store.replace_ms_per_kdoc"] = ms(time.Since(start)) / float64(written) * 1000
	for _, seg := range segs[2:4] {
		if _, err := st.AppendSegment(seg); err != nil {
			return fmt.Errorf("store probe: %w", err)
		}
	}
	closed = true
	if err := st.Close(); err != nil {
		return fmt.Errorf("store probe: %w", err)
	}

	reopen := func(opts store.Options, use func(*store.Store)) (time.Duration, error) {
		start := time.Now()
		st, err := store.Open(dir, opts)
		if err != nil {
			return 0, fmt.Errorf("store probe: %w", err)
		}
		took := time.Since(start)
		if use != nil {
			use(st)
		}
		return took, st.Close()
	}
	eager, err := reopen(store.Options{SyncEvery: 64}, nil)
	if err != nil {
		return err
	}
	m["store.open_eager_ms"] = ms(eager)
	mapped, err := reopen(store.Options{SyncEvery: 64, MapSegments: true}, func(st *store.Store) {
		var ixs []*mining.Index
		for _, rs := range st.Recovered().Segments {
			ixs = append(ixs, rs.Index)
		}
		set := mining.NewSegmentSet(ixs...)
		pass := func() time.Duration {
			lats := make([]time.Duration, len(plans))
			for i, p := range plans {
				start := time.Now()
				p.run(set)
				lats[i] = time.Since(start)
			}
			return p50(lats)
		}
		m["store.mapped_first_query_ms"] = ms(pass())
		m["store.mapped_hot_query_ms"] = ms(pass())
		pc := st.Stats().PostingsCache
		m["store.postings_hit_ratio"] = ratio(pc.Hits, pc.Hits+pc.Misses)
	})
	if err != nil {
		return err
	}
	m["store.open_mapped_ms"] = ms(mapped)
	return nil
}

// vocProbe times the cleaning gate and the linker on sampled messages
// of the telecom world, as direct calls.
func vocProbe(cfg runConfig, m metricSet) error {
	vc := vocConfig(cfg.seed, cfg.z.vocScale)
	start := time.Now()
	world, err := synth.NewTelecomWorld(vc.World)
	if err != nil {
		return err
	}
	m["synth.telecom_world_s"] = time.Since(start).Seconds()
	pick := func(msgs []synth.Message) []synth.Message {
		n := min(256, len(msgs))
		out := make([]synth.Message, n)
		for i := range out {
			out[i] = msgs[i*len(msgs)/n]
		}
		return out
	}
	emails, sms := pick(world.Emails), pick(world.SMS)
	cleaner := clean.NewCleaner()
	type kept struct {
		msg  synth.Message
		text string
	}
	var keep []kept
	process := func(msgs []synth.Message, f func(string) clean.CleanedMessage) float64 {
		start := time.Now()
		for _, msg := range msgs {
			if cm := f(msg.Raw); cm.Verdict == clean.VerdictKeep {
				keep = append(keep, kept{msg, cm.Text})
			}
		}
		return us(time.Since(start)) / float64(len(msgs))
	}
	m["clean.email_us_per_msg"] = process(emails, cleaner.ProcessEmail)
	m["clean.sms_us_per_msg"] = process(sms, cleaner.ProcessSMS)
	total := len(emails) + len(sms)
	m["clean.drop_ratio"] = float64(total-len(keep)) / float64(total)

	engine, err := linker.NewEngine(world.DB, linker.Config{Targets: map[linker.TokenType][]linker.Attribute{
		linker.TokName:   {{Table: "subscribers", Column: "name"}},
		linker.TokDigits: {{Table: "subscribers", Column: "phone"}},
	}})
	if err != nil {
		return err
	}
	annotators := core.NewCarRentalAnnotators()
	subs := world.DB.MustTable("subscribers")
	idOf := map[string]int{}
	for i, cu := range world.Customers {
		idOf[cu.ID] = i
	}
	var extract, link time.Duration
	linked, right := 0, 0
	for _, k := range keep {
		start := time.Now()
		tokens := annotators.Extract(k.text)
		extract += time.Since(start)
		start = time.Now()
		matches := engine.Link(tokens, 1)
		link += time.Since(start)
		minScore := vc.MinLinkScore
		if k.msg.Channel == "sms" {
			minScore = vc.MinLinkScoreSMS
		}
		if len(matches) == 0 || matches[0].Score < minScore {
			continue
		}
		linked++
		if idOf[subs.GetString(matches[0].Row, "id")] == k.msg.CustIdx {
			right++
		}
	}
	kn := float64(max(len(keep), 1))
	m["linker.extract_us_per_msg"] = us(extract) / kn
	m["linker.link_us_per_msg"] = us(link) / kn
	m["linker.linked_ratio"] = float64(linked) / kn
	m["linker.link_correct_ratio"] = float64(right) / float64(max(linked, 1))
	return nil
}

package main

import (
	"fmt"
	"math"
)

// This file is the benchmark's vocabulary: the workload names, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics. BENCHMARK.json at the repository root carries the same
// tables; TestBenchmarkJSONMatchesCode keeps the two in step.

type workloadDef struct {
	Name string
	Why  string
}

// workloadDefs lists the workloads in the order a suite run executes them.
var workloadDefs = []workloadDef{
	{"mono_miss", "2000 distinct mixed queries cycled past the 256-entry result cache of an 8-segment daemon, so every query walks postings, merges, finalizes, marshals and gzips"},
	{"mono_hot", "a 64-query panel cycled against the same daemon so over 99% are cache hits: transport and cache only, the bypass workload for every mining change"},
	{"fed_batch", "the same pool as /v1/batch POSTs of 32 to a 4-shard coordinator: scatter, per-shard batch, gather and merge dominate"},
	{"ingest_serve", "the call pipeline ingests 12000 documents per job through WAL, seal, compaction and remap while two probers read, then the daemon restarts on the data directory"},
	{"voc_batch", "the churn experiment over 8400 emails and SMS per job: clean, link, train and evaluate, with no query serving at all"},
}

type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" | "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen; zero for per-layer metrics, which have none.
	Bound float64
	// Windowed marks the metrics read off the measured windows, whose own
	// spread says how far a single pair of runs can be trusted.
	Windowed bool
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them. The time-based bounds are the widest the driver
// allows: ten runs in a quiet hour of the shared 2-core host differ by
// 3-7% between their quartiles, but the host's own speed drifts by 10-30%
// over minutes and every wall-clock number drifts with it (README.md has
// the measurements).
var endToEnd = []metricDef{
	{"ops_per_s", "op/s", "higher", 0.25, true},
	{"lat_p50_ms", "ms", "lower", 0.25, true},
	{"lat_p95_ms", "ms", "lower", 0.25, true},
	{"heap_live_mb", "MB", "lower", 0.10, false},
	{"setup_s", "s", "lower", 0.25, false},
}

// perLayer names one metric per line, grouped by the module it
// measures. All come from the traced run.
var perLayer = []metricDef{
	// load: the generator itself.
	{Name: "load.window_spread", Unit: "ratio", Better: "lower"},
	{Name: "load.trace_overhead_pct", Unit: "%", Better: "lower"},
	// process: the workload's measured phase as the operating system and the runtime saw it.
	{Name: "process.cpu_ms_per_kop", Unit: "ms", Better: "lower"},
	{Name: "process.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "process.alloc_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "process.gc_count", Unit: "count", Better: "lower"},
	// server: one daemon, 8 sealed segments.
	{Name: "server.http_miss_ms", Unit: "ms", Better: "lower"},
	{Name: "server.http_hit_ms", Unit: "ms", Better: "lower"},
	{Name: "server.handler_miss_ms", Unit: "ms", Better: "lower"},
	{Name: "server.handler_hit_ms", Unit: "ms", Better: "lower"},
	{Name: "server.transport_self_ms", Unit: "ms", Better: "lower"},
	{Name: "server.self_miss_ms", Unit: "ms", Better: "lower"},
	{Name: "server.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.body_bytes_p50", Unit: "B", Better: "lower"},
	{Name: "server.gzip_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.batch32_ms", Unit: "ms", Better: "lower"},
	{Name: "server.batch_per_sub_ms", Unit: "ms", Better: "lower"},
	{Name: "server.count_ms", Unit: "ms", Better: "lower"},
	{Name: "server.trend_ms", Unit: "ms", Better: "lower"},
	{Name: "server.associate_ms", Unit: "ms", Better: "lower"},
	{Name: "server.relfreq_ms", Unit: "ms", Better: "lower"},
	{Name: "server.drilldown_ms", Unit: "ms", Better: "lower"},
	{Name: "server.concepts_ms", Unit: "ms", Better: "lower"},
	{Name: "server.publishes", Unit: "count", Better: "lower"},
	{Name: "server.compactions", Unit: "count", Better: "lower"},
	{Name: "server.segments_final", Unit: "count", Better: "lower"},
	// mining: the same queries as direct calls on benchmark-built indexes.
	{Name: "mining.query_ms", Unit: "ms", Better: "lower"},
	{Name: "mining.mono_query_ms", Unit: "ms", Better: "lower"},
	{Name: "mining.fanin_ratio", Unit: "ratio", Better: "lower"},
	{Name: "mining.segment_walk_ms", Unit: "ms", Better: "lower"},
	{Name: "mining.merge_self_ms", Unit: "ms", Better: "lower"},
	{Name: "mining.count_us", Unit: "us", Better: "lower"},
	{Name: "mining.trend_us", Unit: "us", Better: "lower"},
	{Name: "mining.associate_us", Unit: "us", Better: "lower"},
	{Name: "mining.relfreq_us", Unit: "us", Better: "lower"},
	{Name: "mining.drilldown_us", Unit: "us", Better: "lower"},
	{Name: "mining.concepts_us", Unit: "us", Better: "lower"},
	{Name: "mining.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "mining.mono_allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "mining.parse_dim_us", Unit: "us", Better: "lower"},
	{Name: "mining.seal_ms_per_kdoc", Unit: "ms", Better: "lower"},
	{Name: "mining.merge_segments_ms_per_kdoc", Unit: "ms", Better: "lower"},
	// fed: a coordinator over 4 shards.
	{Name: "fed.http_ms", Unit: "ms", Better: "lower"},
	{Name: "fed.handler_ms", Unit: "ms", Better: "lower"},
	{Name: "fed.slowest_shard_ms", Unit: "ms", Better: "lower"},
	{Name: "fed.sum_shard_ms", Unit: "ms", Better: "lower"},
	{Name: "fed.self_ms", Unit: "ms", Better: "lower"},
	{Name: "fed.tax_ratio", Unit: "ratio", Better: "lower"},
	{Name: "fed.batch32_ms", Unit: "ms", Better: "lower"},
	{Name: "fed.batch_vs_mono_ratio", Unit: "ratio", Better: "lower"},
	{Name: "fed.shard_requests_per_op", Unit: "count", Better: "lower"},
	{Name: "fed.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "fed.degraded", Unit: "count", Better: "lower"},
	// store: direct calls on a temp directory, plus the ingest job's restart.
	{Name: "store.wal_append_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "store.wal_bytes_per_doc", Unit: "B", Better: "lower"},
	{Name: "store.segment_write_ms_per_kdoc", Unit: "ms", Better: "lower"},
	{Name: "store.replace_ms_per_kdoc", Unit: "ms", Better: "lower"},
	{Name: "store.open_eager_ms", Unit: "ms", Better: "lower"},
	{Name: "store.open_mapped_ms", Unit: "ms", Better: "lower"},
	{Name: "store.mapped_first_query_ms", Unit: "ms", Better: "lower"},
	{Name: "store.mapped_hot_query_ms", Unit: "ms", Better: "lower"},
	{Name: "store.postings_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "store.disk_bytes_per_doc", Unit: "B", Better: "lower"},
	{Name: "store.restart_s", Unit: "s", Better: "lower"},
	// pipeline: stage counters of one ingest job, read from /statsz.
	{Name: "pipeline.transcribe_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "pipeline.link_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "pipeline.annotate_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "pipeline.retries", Unit: "count", Better: "lower"},
	{Name: "pipeline.dead_letters", Unit: "count", Better: "lower"},
	// annotate, clean, linker, synth: direct calls on 512 sampled inputs.
	{Name: "annotate.us_per_doc", Unit: "us", Better: "lower"},
	{Name: "annotate.concepts_per_doc", Unit: "count", Better: "higher"},
	{Name: "clean.email_us_per_msg", Unit: "us", Better: "lower"},
	{Name: "clean.sms_us_per_msg", Unit: "us", Better: "lower"},
	{Name: "clean.drop_ratio", Unit: "ratio", Better: "lower"},
	{Name: "linker.extract_us_per_msg", Unit: "us", Better: "lower"},
	{Name: "linker.link_us_per_msg", Unit: "us", Better: "lower"},
	{Name: "linker.linked_ratio", Unit: "ratio", Better: "higher"},
	{Name: "linker.link_correct_ratio", Unit: "ratio", Better: "higher"},
	{Name: "synth.carrental_world_s", Unit: "s", Better: "lower"},
	{Name: "synth.telecom_world_s", Unit: "s", Better: "lower"},
}

// metricValue is one reported number; the JSON shape is the driver's.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]float64

// render attaches units and checks that exactly the metrics of defs are
// present, so a run can never silently drop or invent a name.
func (m metricSet) render(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(m) != len(defs) {
		for name := range m {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is not declared", name)
			}
		}
	}
	return out, nil
}

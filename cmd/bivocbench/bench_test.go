package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"bivoc/internal/mining"
)

func TestPercentileNearestRank(t *testing.T) {
	var sorted []time.Duration
	for i := 1; i <= 100; i++ {
		sorted = append(sorted, time.Duration(i))
	}
	for q, want := range map[float64]time.Duration{0.50: 50, 0.99: 99, 0.0: 1, 1.0: 100} {
		if got := percentile(sorted, q); got != want {
			t.Errorf("percentile(%v) = %d, want %d", q, got, want)
		}
	}
}

func TestValuesAreTheQuietQuartileOfTheWindows(t *testing.T) {
	mk := func(ops int, lats ...time.Duration) window {
		return window{ops: ops, dur: time.Second, lats: lats}
	}
	ms := time.Millisecond
	// Five windows, the second and the fourth disturbed: one slow, one
	// with a long tail. Neither moves a reported value.
	ws := []window{
		mk(100, 1*ms, 2*ms, 3*ms, 4*ms),
		mk(10, 7*ms, 8*ms, 9*ms, 90*ms),
		mk(90, 2*ms, 3*ms, 4*ms, 5*ms),
		mk(95, 1*ms, 2*ms, 3*ms, 500*ms),
		mk(80, 3*ms, 4*ms, 5*ms, 6*ms),
	}
	// statistics.quantiles([10, 80, 90, 95, 100], n=4)[2] == 97.5
	if got := quiet(ws, window.rate, true); got != 97.5 {
		t.Errorf("ops_per_s = %v, want the upper quartile 97.5", got)
	}
	// The windows' medians are 2, 8, 3, 2, 4 ms and their tails 4, 90, 5, 500, 6 ms.
	if got := quiet(ws, func(w window) float64 { return w.quantile(0.50) }, false); got != 2 {
		t.Errorf("median latency = %v ms, want the lower quartile 2", got)
	}
	if got := quiet(ws, func(w window) float64 { return w.quantile(tail) }, false); got != 4.5 {
		t.Errorf("tail latency = %v ms, want the lower quartile 4.5", got)
	}
	if got := quiet(ws[:1], window.rate, true); got != 100 {
		t.Errorf("one window: ops_per_s = %v, want its own 100", got)
	}
	if all := pooledRate(ws); all != 375.0/5 {
		t.Errorf("rate over all windows = %v, want %v", all, 375.0/5)
	}
	// A failed operation is not a completed one.
	if got := (window{ops: 10, failed: 4, dur: time.Second}).rate(); got != 6 {
		t.Errorf("rate with failures = %v, want 6", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of three = %v %v %v, want 1 2 4", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "handler", Start: 0, End: 100},
		{ID: 2, Name: "shard", Start: 10, End: 40, Parent: 1},  // overlaps the next
		{ID: 3, Name: "shard", Start: 30, End: 60, Parent: 1},  // union with the first: 10..60
		{ID: 4, Name: "shard", Start: 90, End: 120, Parent: 1}, // sticks out: only 90..100 counts
		{ID: 5, Name: "inner", Start: 15, End: 35, Parent: 2},  // a grandchild changes its parent only
		{ID: 6, Name: "lone", Start: 200, End: 230},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 40, 2: 10, 3: 30, 4: 30, 5: 20, 6: 30} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestRecorderNestsByOpenParentAndSuffix(t *testing.T) {
	r := newRecorder()
	r.on.Store(true)
	r.suffix("_miss")
	op := r.nextOp()
	outer := r.begin("server.http", "")
	inner := r.begin("server.handler", "server.http")
	r.end(inner)
	r.end(outer)
	orphan := r.begin("server.handler", "server.http") // no client span open any more
	r.end(orphan)
	if got := r.spans[inner-1]; got.Name != "server.handler_miss" || got.Parent != outer || got.Op != op {
		t.Errorf("inner span = %+v, want server.handler_miss under span %d in op %d", got, outer, op)
	}
	if got := r.spans[orphan-1].Parent; got != 0 {
		t.Errorf("span begun with no parent open has parent %d, want 0", got)
	}
	if got := r.perOp("server.handler_miss", op, op, sumDur); len(got) != 1 {
		t.Errorf("perOp found %d operations, want 1", len(got))
	}
}

func smokeOracle(t *testing.T, seed int64) *mining.Index {
	t.Helper()
	_, oracle, err := buildCorpus(seed, smokeSizes.callsPerDay, smokeSizes.days)
	if err != nil {
		t.Fatal(err)
	}
	return oracle
}

func poolHash(t *testing.T, oracle *mining.Index, seed int64) string {
	t.Helper()
	pool, err := synthesizePool(oracle, smokeSizes.pool, seed)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, q := range pool {
		fmt.Fprintln(h, q.path())
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestPoolIsDeterministicDistinctAndMixed(t *testing.T) {
	oracle := smokeOracle(t, 1)
	if a, b := poolHash(t, oracle, 1), poolHash(t, smokeOracle(t, 1), 1); a != b {
		t.Error("the same seed gave two different pools")
	}
	if a, b := poolHash(t, oracle, 1), poolHash(t, oracle, 2); a == b {
		t.Error("seeds 1 and 2 gave the same pool")
	}
	pool, err := synthesizePool(oracle, smokeSizes.pool, 1)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	kinds := map[string]int{}
	for _, q := range pool {
		// The daemon's cache key canonicalizes dimension spelling; distinct
		// queries must stay distinct under it or the miss workload hits.
		key := q.Endpoint
		for name, vals := range q.Params {
			for _, v := range vals {
				if d, err := mining.ParseDim(v); err == nil && name != "category" && name != "field" {
					v = d.CanonicalLabel()
				}
				key += "\x00" + name + "=" + v
			}
		}
		if keys[key] {
			t.Errorf("pool holds %s twice under the cache's canonical key", q.path())
		}
		keys[key] = true
		kinds[q.Endpoint]++
	}
	n := float64(len(pool))
	for ep, want := range map[string]float64{"trend": 0.15, "associate": 0.15, "relfreq": 0.10, "drilldown": 0.10} {
		if got := float64(kinds[ep]) / n; math.Abs(got-want) > 0.001 {
			t.Errorf("share of %s queries = %.3f, want %.2f", ep, got, want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "lat", Better: "lower", Bound: 0.10, Windowed: true}
	higher := metricDef{Name: "ops", Better: "higher", Bound: 0.10, Windowed: true}
	for _, c := range []struct {
		d                 metricDef
		base, changed, sp float64
		want              string
	}{
		{lower, 100, 105, 0.02, "within"},
		{lower, 100, 111, 0.02, "regressed"},
		{lower, 100, 80, 0.02, "improved"},
		{higher, 100, 80, 0.02, "regressed"},
		{higher, 100, 120, 0.02, "improved"},
		{higher, 100, 80, 0.30, "unresolved"},
		{metricDef{Name: "heap", Better: "lower", Bound: 0.10}, 100, 120, 0.30, "regressed"},
	} {
		if _, got := verdict(c.d, c.base, c.changed, c.sp, 0.01); got != c.want {
			t.Errorf("verdict(%s %v→%v, spread %v) = %s, want %s", c.d.Better, c.base, c.changed, c.sp, got, c.want)
		}
	}
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %s", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(file.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code runs %d", len(file.Workloads), len(workloadDefs))
	}
	for i, w := range file.Workloads {
		checkName(w.Name)
		if w.Name != workloadDefs[i].Name || w.Why != workloadDefs[i].Why {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the code, or their reasons differ", i, w.Name, workloadDefs[i].Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the code emits %d", len(got), kind, len(want))
		}
		for i, g := range got {
			w := want[i]
			checkName(g.Name)
			if !unit.MatchString(g.Unit) {
				t.Errorf("unit %q of %s is not a valid unit", g.Unit, g.Name)
			}
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the code has %+v", kind, i, g, w)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.Bound || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s: bound in BENCHMARK.json does not equal the code's %v, or is outside (0, 0.25]", g.Name, w.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", g.Name)
			}
		}
	}
	compare("end-to-end", file.EndToEnd, endToEnd, true)
	compare("per-layer", file.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("setup_s is not an end-to-end metric")
	}
}

// TestBenchSmoke runs all five workloads at smoke size with every
// verification the full size makes. The layer budget of a traced run is
// the same whatever the workload, so only two are also traced: one that
// drives both caches and one that makes no lookup at all.
func TestBenchSmoke(t *testing.T) {
	tmp := t.TempDir()
	traced := map[string]bool{"fed_batch": true, "voc_batch": true}
	for _, w := range workloadDefs {
		for _, trace := range []bool{false, true} {
			if trace && !traced[w.Name] {
				continue
			}
			cfg := runConfig{workload: w.Name, seed: 1, seconds: 0.3, z: smokeSizes, tmp: tmp}
			o, err := measure(cfg, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !o.Correct || o.Failed != 0 || o.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %s", w.Name, trace, o.Correct, o.Attempted, o.Failed, o.Failure)
			}
			want := len(endToEnd)
			if trace {
				want = len(perLayer)
			}
			if len(o.Metrics) != want {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(o.Metrics), want)
			}
			if !trace {
				for name, v := range o.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want positive", w.Name, name, v.Value)
					}
				}
			}
		}
		if !traced[w.Name] {
			continue
		}
		data, err := os.ReadFile(filepath.Join(tmp, "trace-"+w.Name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var file struct{ Spans []span }
		if err := json.Unmarshal(data, &file); err != nil {
			t.Fatal(err)
		}
		children := 0
		for _, s := range file.Spans {
			if s.Name == "" || s.End < s.Start || s.Op < 1 {
				t.Fatalf("malformed span %+v", s)
			}
			if s.Parent != 0 {
				children++
			}
		}
		if children == 0 {
			t.Errorf("trace-%s.json has %d spans and none has a parent", w.Name, len(file.Spans))
		}
	}
}

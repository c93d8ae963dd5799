package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"bivoc/internal/server"
)

// client is one caller: a single keep-alive connection that asks for
// gzip and reads the reply's bytes as they come off the wire. Nothing is
// decompressed while a clock runs.
type client struct{ hc *http.Client }

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
}

func newClients(n int) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = newClient()
	}
	return cs
}

func closeAll(cs []*client) {
	for _, c := range cs {
		c.hc.CloseIdleConnections()
	}
}

type reply struct {
	status int
	header http.Header
	body   []byte
	n      int // operations the request carried
}

func (c *client) do(base string, o op) (reply, error) {
	var req *http.Request
	var err error
	if o.body == nil {
		req, err = http.NewRequest(http.MethodGet, base+o.path, nil)
	} else {
		req, err = http.NewRequest(http.MethodPost, base+o.path, bytes.NewReader(o.body))
	}
	if err != nil {
		return reply{}, err
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{resp.StatusCode, resp.Header, body, o.n}, nil
}

// plain returns the reply's body decompressed.
func (r reply) plain() ([]byte, error) {
	if r.header.Get("Content-Encoding") != "gzip" {
		return r.body, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(r.body))
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	return io.ReadAll(zr)
}

// failedFast is the check a timed loop can afford on every reply: the
// status, a body, and the generation header, in which a coordinator
// writes "-" for a shard whose answer is missing.
func (r reply) failedFast() bool {
	return r.status != http.StatusOK || len(r.body) == 0 ||
		strings.Contains(r.header.Get(server.GenerationHeader), "-")
}

// checkDeep decodes a reply after the clock has stopped: valid JSON, no
// degraded marker, and for a batch every sub-result 200. It returns the
// number of failed operations out of the r.n the request carried.
func (r reply) checkDeep() int {
	n := r.n
	body, err := r.plain()
	if err != nil || !json.Valid(body) || bytes.Contains(body, []byte(`"degraded":true`)) {
		return n
	}
	if n == 1 {
		return 0
	}
	var env server.BatchResponse
	if json.Unmarshal(body, &env) != nil || len(env.Results) != n {
		return n
	}
	bad := 0
	for _, sub := range env.Results {
		if sub.Status != http.StatusOK {
			bad++
		}
	}
	return bad
}

// failures is the full check of one untimed request: how many of the n
// operations it carried failed.
func failures(r reply, err error, n int) int {
	if err != nil || r.failedFast() {
		return n
	}
	return r.checkDeep()
}

// window is one stretch of closed-loop load: one replay of a workload's
// whole op sequence, or one job.
type window struct {
	ops    int // operations attempted (a batch of 32 is 32)
	failed int
	dur    time.Duration
	lats   []time.Duration // one per request
}

func (w window) rate() float64 { return float64(w.ops-w.failed) / w.dur.Seconds() }

// quantile is the window's own q-quantile of request latency, in ms.
func (w window) quantile(q float64) float64 {
	sorted := append([]time.Duration(nil), w.lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return ms(percentile(sorted, q))
}

// deepEvery is the stride at which a loop keeps replies for checkDeep.
const deepEvery = 16

// closedLoop drives base with one goroutine per client until ctx ends or,
// when limit is positive, limit requests have been sent: each client
// sends its next request only when the previous reply has been read,
// waits think, and takes the next op off one shared sequence that starts
// at ops[0]. Callers that wait for their reply are a closed loop; there
// are never more requests in flight than clients.
func closedLoop(ctx context.Context, base string, clients []*client, ops []op, think time.Duration, limit int) window {
	type part struct {
		ops, failed int
		lats        []time.Duration
		kept        []reply
	}
	parts := make([]part, len(clients))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for ci, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var p part // local while the loop runs: two clients must not share a cache line
			defer func() { parts[ci] = p }()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if limit > 0 && i >= limit {
					return
				}
				o := ops[i%len(ops)]
				t := time.Now()
				r, err := c.do(base, o)
				p.lats = append(p.lats, time.Since(t))
				p.ops += o.n
				switch {
				case err != nil || r.failedFast():
					p.failed += o.n
				case i%deepEvery == 0:
					p.kept = append(p.kept, r)
				}
				if think > 0 {
					time.Sleep(think)
				}
			}
		}()
	}
	wg.Wait()
	w := window{dur: time.Since(start)}
	for _, p := range parts {
		w.ops += p.ops
		w.failed += p.failed
		w.lats = append(w.lats, p.lats...)
		for _, r := range p.kept {
			w.failed += r.checkDeep()
		}
	}
	return w
}

// issue sends the first n ops once, untimed, over the clients in turn,
// and reports how many operations failed. It is the warm-up.
func issue(base string, clients []*client, ops []op, n int) (attempted, failed int) {
	for i := 0; i < n; i++ {
		o := ops[i%len(ops)]
		r, err := clients[i%len(clients)].do(base, o)
		attempted += o.n
		failed += failures(r, err, o.n)
	}
	return attempted, failed
}

// measureWindows replays the whole op sequence, from its start, until
// seconds have passed. Every window does the same work, so the windows of
// a run differ only by what else the host and the runtime were doing.
func measureWindows(base string, clients []*client, ops []op, seconds float64) []window {
	var ws []window
	for start := time.Now(); len(ws) == 0 || time.Since(start).Seconds() < seconds; {
		ws = append(ws, closedLoop(context.Background(), base, clients, ops, 0, len(ops)))
	}
	return ws
}

// tail is the percentile reported beside the median. On the shared
// 2-core host it is the highest that repeats: a window's p99 is set by
// a handful of requests that waited behind a collection or a neighbour,
// and it moved twice as far as the host's speed did between runs.
const tail = 0.95

// quiet is the value a quarter of the way in from the windows' better
// end: the rate three windows in four stayed below, the latency three in
// four exceeded. A co-tenant of the shared host only ever slows a window
// down, and does so in bursts of seconds, so while a quarter of a run's
// windows escape them the value is the program's own. (Beside a synthetic
// neighbour that spins one core half of the time, the medians over
// windows of ten mono_miss runs spread 14-17% between their quartiles,
// these values 4-5%.)
func quiet(ws []window, value func(window) float64, higherIsBetter bool) float64 {
	vals := make([]float64, len(ws))
	for i, w := range ws {
		vals[i] = value(w)
	}
	q1, _, q3 := quartiles(vals)
	if higherIsBetter {
		return q3
	}
	return q1
}

// pooledRate is the windows' completed operations over their total time.
func pooledRate(ws []window) float64 {
	var ops int
	var dur time.Duration
	for _, w := range ws {
		ops += w.ops - w.failed
		dur += w.dur
	}
	return float64(ops) / dur.Seconds()
}

// percentile reads the q-quantile of sorted samples by nearest rank.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(idx, 0), len(sorted)-1)]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// p50 is the median of unsorted durations.
func p50(ds []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return percentile(sorted, 0.50)
}

// quartiles are Python's statistics.quantiles(values, n=4): the driver
// judges spread with that function, so the benchmark does too.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	n := len(data)
	if n < 2 {
		return data[0], data[0], data[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(values)
	return (q3 - q1) / q2
}

func median(values []float64) float64 {
	_, q2, _ := quartiles(values)
	return q2
}

func rates(ws []window) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		out[i] = w.rate()
	}
	return out
}

// liveHeapMB forces a collection and returns what survived it, in MB:
// the memory the process holds on to, without the garbage in flight.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// peakLiveHeap watches a job that keeps nothing once it returns: it
// samples the heap the collector last found live every few milliseconds
// and stop returns the largest, in MB.
func peakLiveHeap() (stop func() float64) {
	read := func() uint64 {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		return s[0].Value.Uint64()
	}
	quit, done := make(chan struct{}), make(chan uint64)
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		peak := read()
		for {
			select {
			case <-quit:
				done <- max(peak, read())
				return
			case <-tick.C:
				peak = max(peak, read())
			}
		}
	}()
	return func() float64 {
		close(quit)
		return float64(<-done) / 1e6
	}
}

// procCounters is what the operating system and the runtime counted for
// this process so far.
type procCounters struct {
	cpu                time.Duration
	allocs, bytes, gcs uint64
}

func readProc() (procCounters, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return procCounters{}, fmt.Errorf("getrusage: %w", err)
	}
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return procCounters{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: s[0].Value.Uint64(),
		bytes:  s[1].Value.Uint64(),
		gcs:    s[2].Value.Uint64(),
	}, nil
}

func (a procCounters) minus(b procCounters) procCounters {
	return procCounters{a.cpu - b.cpu, a.allocs - b.allocs, a.bytes - b.bytes, a.gcs - b.gcs}
}

func (a procCounters) plus(b procCounters) procCounters {
	return procCounters{a.cpu + b.cpu, a.allocs + b.allocs, a.bytes + b.bytes, a.gcs + b.gcs}
}

// perOp writes the process.* metrics: what a spent, over ops operations.
func (a procCounters) perOp(ops int, m metricSet) {
	n := float64(max(ops, 1))
	m["process.cpu_ms_per_kop"] = ms(a.cpu) / n * 1000
	m["process.allocs_per_op"] = float64(a.allocs) / n
	m["process.alloc_kb_per_op"] = float64(a.bytes) / n / 1e3
	m["process.gc_count"] = float64(a.gcs)
}

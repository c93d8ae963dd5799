// Package load is the open-loop HTTP load harness for the BIVoC query
// daemons (bivocd and bivocfed). It drives a fixed-arrival-rate
// schedule — not a closed loop: arrivals are timestamped in advance and
// every latency sample is measured from its *scheduled* arrival, so a
// server that falls behind accrues queueing delay in the percentiles
// instead of silently throttling the generator (the coordinated-
// omission correction). Achieved-vs-offered throughput then reads
// directly as a saturation signal: the knee where achieved stops
// tracking offered is the capacity of the target.
package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bivoc/internal/server"
)

// QuerySpec is one synthesized query in endpoint+params form: it
// renders as a single GET (/v1/<endpoint>?<params>) or as one
// sub-query of a /v1/batch POST, the daemons' own wire type.
type QuerySpec = server.BatchQuery

// Config drives one open-loop run against one target.
type Config struct {
	// Base is the target's base URL ("http://127.0.0.1:8080").
	Base string
	// Client issues the requests (default: a dedicated pooled client).
	Client *http.Client
	// QPS is the offered arrival rate in queries per second. With
	// batching, requests arrive at QPS/Batch so the query rate stays
	// what was asked for.
	QPS float64
	// Duration is the length of the arrival schedule.
	Duration time.Duration
	// Workers caps client concurrency (default 64). When every worker
	// is busy past an arrival's scheduled time, the arrival waits — and
	// the wait is charged to its latency.
	Workers int
	// Batch groups this many consecutive queries per /v1/batch request
	// (≤1 sends plain GETs).
	Batch int
	// Queries is the synthesized query pool, cycled in order. Required.
	Queries []QuerySpec
}

// Report is the outcome of one run. Latencies are request-level,
// measured from each request's scheduled arrival time.
type Report struct {
	OfferedQPS  float64 `json:"offered_qps"`
	AchievedQPS float64 `json:"achieved_qps"` // completed queries per second of wall time
	Requests    int     `json:"requests"`
	Queries     int     `json:"queries"`
	Batch       int     `json:"batch"`
	Errors      int     `json:"errors"`     // non-200 responses and transport failures
	SubErrors   int     `json:"sub_errors"` // non-200 sub-results inside 200 batch envelopes
	Degraded    int     `json:"degraded"`   // responses carrying "degraded":true
	P50US       int64   `json:"p50_us"`
	P95US       int64   `json:"p95_us"`
	P99US       int64   `json:"p99_us"`
	P999US      int64   `json:"p999_us"`
	MaxUS       int64   `json:"max_us"`
	ElapsedMS   int64   `json:"elapsed_ms"`
}

// request is one pre-rendered arrival: a GET URL or a batch POST body.
type request struct {
	url     string
	body    []byte // nil → GET
	queries int
}

var degradedMarker = []byte(`"degraded":true`)
var errorMarker = []byte(`"error":`)

// Run executes one open-loop schedule and reports the percentiles.
func Run(ctx context.Context, cfg Config) (Report, error) {
	if cfg.Base == "" || cfg.QPS <= 0 || cfg.Duration <= 0 || len(cfg.Queries) == 0 {
		return Report{}, fmt.Errorf("load: Base, QPS, Duration, and Queries are all required")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 64
	}
	batch := cfg.Batch
	if batch <= 1 {
		batch = 1
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}

	reqRate := cfg.QPS / float64(batch)
	interval := time.Duration(float64(time.Second) / reqRate)
	if math.IsNaN(cfg.QPS) || math.IsInf(cfg.QPS, 0) || interval < 1 {
		return Report{}, fmt.Errorf("load: QPS %g is not a finite rate with at least a nanosecond between requests", cfg.QPS)
	}
	n := int(cfg.Duration / interval)
	if n < 1 {
		n = 1
	}
	reqs := make([]request, n)
	for i := range reqs {
		var err error
		reqs[i], err = renderRequest(cfg, i, batch)
		if err != nil {
			return Report{}, err
		}
	}

	type sample struct {
		latency   time.Duration
		err       bool
		subErrors int
		degraded  bool
		queries   int
	}
	samples := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				sched := start.Add(time.Duration(i) * interval)
				if d := time.Until(sched); d > 0 {
					select {
					case <-time.After(d):
					case <-ctx.Done():
						return
					}
				}
				status, body, err := issue(ctx, client, reqs[i])
				s := &samples[i]
				s.latency = time.Since(sched)
				s.queries = reqs[i].queries
				switch {
				case err != nil || status != http.StatusOK:
					s.err = true
				default:
					s.degraded = bytes.Contains(body, degradedMarker)
					if reqs[i].body != nil {
						s.subErrors = bytes.Count(body, errorMarker)
					}
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := ctx.Err(); err != nil {
		return Report{}, err
	}

	rep := Report{
		OfferedQPS: cfg.QPS,
		Batch:      batch,
		ElapsedMS:  elapsed.Milliseconds(),
	}
	lats := make([]time.Duration, 0, n)
	for i := range samples {
		s := &samples[i]
		rep.Requests++
		rep.SubErrors += s.subErrors
		if s.err {
			rep.Errors++
			continue
		}
		rep.Queries += s.queries
		if s.degraded {
			rep.Degraded++
		}
		lats = append(lats, s.latency)
	}
	rep.AchievedQPS = float64(rep.Queries) / elapsed.Seconds()
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		rep.P50US = percentile(lats, 0.50).Microseconds()
		rep.P95US = percentile(lats, 0.95).Microseconds()
		rep.P99US = percentile(lats, 0.99).Microseconds()
		rep.P999US = percentile(lats, 0.999).Microseconds()
		rep.MaxUS = lats[len(lats)-1].Microseconds()
	}
	return rep, nil
}

// renderRequest builds the i-th arrival from the cycled query pool.
func renderRequest(cfg Config, i, batch int) (request, error) {
	if batch <= 1 {
		q := cfg.Queries[i%len(cfg.Queries)]
		return request{url: cfg.Base + getPath(q), queries: 1}, nil
	}
	sub := make([]QuerySpec, batch)
	for j := range sub {
		sub[j] = cfg.Queries[(i*batch+j)%len(cfg.Queries)]
	}
	body, err := json.Marshal(server.BatchRequest{Queries: sub})
	if err != nil {
		return request{}, err
	}
	return request{url: cfg.Base + "/v1/batch", body: body, queries: batch}, nil
}

// getPath renders a QuerySpec as its GET path.
func getPath(q QuerySpec) string {
	return "/v1/" + q.Endpoint + "?" + url.Values(q.Params).Encode()
}

// issue performs one request and drains the body.
func issue(ctx context.Context, client *http.Client, r request) (int, []byte, error) {
	var req *http.Request
	var err error
	if r.body == nil {
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, r.url, nil)
	} else {
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, r.url, bytes.NewReader(r.body))
		if req != nil {
			req.Header.Set("Content-Type", "application/json")
		}
	}
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

// percentile reads the q-quantile from sorted latencies (nearest-rank).
func percentile(sorted []time.Duration, q float64) time.Duration {
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

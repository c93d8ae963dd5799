package load

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bivoc/internal/annotate"
	"bivoc/internal/mining"
	"bivoc/internal/server"
)

// loadTestServer boots a small sealed daemon for the harness to drive.
func loadTestServer(tb testing.TB, n int) string {
	tb.Helper()
	docs := make([]mining.Document, n)
	for i := range docs {
		parity := "even"
		if i%2 == 1 {
			parity = "odd"
		}
		docs[i] = mining.Document{
			ID: fmt.Sprintf("load-%05d", i),
			Concepts: []annotate.Concept{
				{Category: "topic", Canonical: []string{"billing", "coverage", "roadside"}[i%3]},
			},
			Fields: map[string]string{"parity": parity, "outcome": []string{"reservation", "unbooked", "service"}[i%3]},
			Time:   i / 10,
		}
	}
	s, err := server.New(server.Config{Source: func(ctx context.Context, _ func(string) bool, emit func(mining.Document) error) error {
		for _, d := range docs {
			if err := emit(d); err != nil {
				return err
			}
		}
		return nil
	}})
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Start(); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	select {
	case <-s.IngestDone():
	case <-time.After(10 * time.Second):
		tb.Fatal("ingest did not seal")
	}
	return "http://" + s.Addr()
}

// TestOpenLoopRun pins the harness end to end: vocabulary discovery,
// mixed-pool synthesis, and a short single-query and batched run with a
// clean report (no errors, sane percentiles, conserved query counts).
func TestOpenLoopRun(t *testing.T) {
	base := loadTestServer(t, 300)
	vocab, err := DiscoverVocab(nil, base, []string{"topic", "nosuchcategory"}, []string{"parity", "outcome"})
	if err != nil {
		t.Fatal(err)
	}
	if len(vocab.Categories["topic"]) == 0 || len(vocab.Fields["parity"]) != 2 {
		t.Fatalf("vocabulary discovery missed live labels: %+v", vocab)
	}
	if _, ok := vocab.Categories["nosuchcategory"]; ok {
		t.Fatalf("vocabulary discovery invented a category: %+v", vocab)
	}

	queries, err := SynthesizeQueries(vocab, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(queries) != 64 {
		t.Fatalf("synthesized %d queries, want 64", len(queries))
	}
	again, err := SynthesizeQueries(vocab, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	eps := server.NewEndpoints(0)
	keys := map[string]bool{}
	for i := range queries {
		if queries[i].Endpoint != again[i].Endpoint {
			t.Fatalf("query synthesis is not deterministic at index %d", i)
		}
		p, err := eps.Plan(queries[i].Endpoint, url.Values(queries[i].Params))
		if err != nil {
			t.Fatal(err)
		}
		if keys[p.Key] {
			t.Errorf("pool holds %s twice under the daemon's cache key", getPath(queries[i]))
		}
		keys[p.Key] = true
	}
	// One field of two values has a few dozen queries in it, not 1000: the
	// pool must say so instead of repeating itself.
	small := Vocab{Fields: map[string][]string{"parity": vocab.Fields["parity"]}}
	if _, err := SynthesizeQueries(small, 1000, 1); err == nil || !strings.Contains(err.Error(), "distinct queries") {
		t.Errorf("a 1000-query pool from a two-label vocabulary: err = %v", err)
	}

	for _, batch := range []int{1, 8} {
		rep, err := Run(context.Background(), Config{
			Base:     base,
			QPS:      400,
			Duration: 300 * time.Millisecond,
			Workers:  16,
			Batch:    batch,
			Queries:  queries,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Errors != 0 || rep.SubErrors != 0 {
			t.Fatalf("batch=%d: %d errors, %d sub-errors (vocabulary-driven queries must not fail)", batch, rep.Errors, rep.SubErrors)
		}
		if rep.Requests == 0 || rep.Queries != rep.Requests*max(batch, 1) {
			t.Fatalf("batch=%d: %d requests / %d queries violate conservation", batch, rep.Requests, rep.Queries)
		}
		if rep.AchievedQPS <= 0 || rep.P50US <= 0 || rep.P999US < rep.P50US || rep.MaxUS < rep.P999US {
			t.Fatalf("batch=%d: implausible report %+v", batch, rep)
		}
		if rep.Degraded != 0 {
			t.Fatalf("batch=%d: single daemon reported %d degraded responses", batch, rep.Degraded)
		}
	}
}

// TestRunRefusesUnschedulableRates: a rate that is not a finite number,
// or so high that requests would be less than a nanosecond apart, is an
// error before anything is sent — not a division by a zero interval, and
// not a run of one request reported as clean.
func TestRunRefusesUnschedulableRates(t *testing.T) {
	var hits atomic.Int64
	target := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		fmt.Fprintln(w, `{}`)
	}))
	defer target.Close()
	queries := []QuerySpec{{Endpoint: "count", Params: map[string][]string{"dim": {"topic"}}}}
	for _, tc := range []struct {
		qps   float64
		batch int
	}{{2e9, 1}, {1e10, 8}, {1e300, 1}, {math.Inf(1), 1}, {math.Inf(1), 8}, {math.NaN(), 1}, {math.NaN(), 8}} {
		_, err := Run(context.Background(), Config{Base: target.URL, QPS: tc.qps, Duration: time.Second, Batch: tc.batch, Queries: queries})
		if err == nil {
			t.Errorf("QPS %g, batch %d: Run returned no error", tc.qps, tc.batch)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Errorf("%d requests reached the target", n)
	}
}

// TestOpenLoopChargesQueueing pins the coordinated-omission correction:
// against a server stalled far past the arrival interval, latency
// percentiles must reflect the schedule backlog, not just service time.
// A closed-loop generator would report ~service time for every request;
// the open loop must charge each arrival the wait behind the schedule.
func TestOpenLoopChargesQueueing(t *testing.T) {
	const service = 10 * time.Millisecond
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"generation":1,"sealed":true,"total":1}`)
	}))
	t.Cleanup(slow.Close)
	queries := []QuerySpec{{Endpoint: "count", Params: map[string][]string{"dim": {"parity=even"}}}}

	// One worker at 500 offered QPS against 10ms service: arrivals are
	// scheduled every 2ms but complete every ~10ms, so the backlog grows
	// through the whole run and even the median sits far above service
	// time under scheduled-arrival accounting.
	rep, err := Run(context.Background(), Config{
		Base:     slow.URL,
		QPS:      500,
		Duration: 100 * time.Millisecond,
		Workers:  1,
		Queries:  queries,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests < 40 {
		t.Fatalf("open loop issued only %d requests", rep.Requests)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d errors against the slow stub", rep.Errors)
	}
	if rep.P50US < 5*service.Microseconds() {
		t.Fatalf("median latency %dus ≈ service time %dus — queueing delay not charged to the schedule", rep.P50US, service.Microseconds())
	}
	if rep.MaxUS < rep.P50US {
		t.Fatalf("implausible report %+v", rep)
	}
}

// BenchmarkLoadHarness times the harness itself: one short open-loop run
// per iteration.
func BenchmarkLoadHarness(b *testing.B) {
	base := loadTestServer(b, 200)
	vocab, err := DiscoverVocab(nil, base, []string{"topic"}, []string{"parity", "outcome"})
	if err != nil {
		b.Fatal(err)
	}
	queries, err := SynthesizeQueries(vocab, 32, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Run(context.Background(), Config{
			Base:     base,
			QPS:      1000,
			Duration: 100 * time.Millisecond,
			Workers:  16,
			Queries:  queries,
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Errors > 0 {
			b.Fatalf("%d errors", rep.Errors)
		}
	}
}

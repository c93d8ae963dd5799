package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// item is the flow unit of the tests: an index plus an accumulating trace
// of the stages that touched it.
type item struct {
	idx   int
	trace string
}

func appendStage(tag string) func(context.Context, item) (item, error) {
	return func(_ context.Context, it item) (item, error) {
		it.trace += tag
		return it, nil
	}
}

func TestEveryItemDrainsThroughAllStages(t *testing.T) {
	const n = 200
	p := New[item]("t",
		Stage[item]{Name: "a", Workers: 4, Fn: appendStage("a")},
		Stage[item]{Name: "b", Workers: 2, Fn: appendStage("b")},
		Stage[item]{Name: "c", Workers: 3, Fn: appendStage("c")},
	)
	got := make([]string, n)
	err := p.Run(context.Background(),
		IndexedSource(n, func(i int) item { return item{idx: i} }),
		func(it item) error { got[it.idx] = it.trace; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if p.delivered.Load() != n {
		t.Fatalf("delivered %d, want %d", p.delivered.Load(), n)
	}
	for i, tr := range got {
		if tr != "abc" {
			t.Fatalf("item %d trace %q, want abc", i, tr)
		}
	}
	for _, st := range p.Stats() {
		if st.In != n || st.Out != n || st.Skipped != 0 || st.Errors != 0 {
			t.Fatalf("stage %s counters %+v, want in=out=%d", st.Name, st, n)
		}
		if st.QueueDepth != 0 {
			t.Fatalf("stage %s queue depth %d after drain", st.Name, st.QueueDepth)
		}
	}
}

func TestSkipDropsWithoutFailing(t *testing.T) {
	const n = 100
	p := New[item]("t",
		Stage[item]{Name: "filter", Workers: 3, Fn: func(_ context.Context, it item) (item, error) {
			if it.idx%2 == 1 {
				return it, ErrSkip
			}
			return it, nil
		}},
		Stage[item]{Name: "tag", Workers: 2, Fn: appendStage("x")},
	)
	var kept []int
	err := p.Run(context.Background(),
		IndexedSource(n, func(i int) item { return item{idx: i} }),
		func(it item) error { kept = append(kept, it.idx); return nil })
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(kept)
	if len(kept) != n/2 {
		t.Fatalf("kept %d items, want %d", len(kept), n/2)
	}
	for i, v := range kept {
		if v != 2*i {
			t.Fatalf("kept[%d] = %d, want %d", i, v, 2*i)
		}
	}
	st := p.Stats()[0]
	if st.Skipped != n/2 || st.Out != n/2 {
		t.Fatalf("filter counters skipped=%d out=%d, want %d/%d", st.Skipped, st.Out, n/2, n/2)
	}
}

func TestStageErrorFailsFast(t *testing.T) {
	boom := errors.New("boom")
	p := New[item]("t",
		Stage[item]{Name: "ok", Workers: 2, Fn: appendStage("a")},
		Stage[item]{Name: "explode", Workers: 2, Fn: func(_ context.Context, it item) (item, error) {
			if it.idx == 17 {
				return it, boom
			}
			return it, nil
		}},
	)
	err := p.Run(context.Background(),
		IndexedSource(1000, func(i int) item { return item{idx: i} }),
		func(item) error { return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "stage explode") {
		t.Fatalf("error %q does not name the failing stage", err)
	}
	if p.delivered.Load() == 1000 {
		t.Fatal("fail-fast run still delivered every item")
	}
}

func TestSinkErrorFailsRun(t *testing.T) {
	p := New[item]("t", Stage[item]{Name: "a", Fn: appendStage("a")})
	sinkErr := errors.New("disk full")
	err := p.Run(context.Background(),
		IndexedSource(50, func(i int) item { return item{idx: i} }),
		func(it item) error {
			if it.idx == 3 {
				return sinkErr
			}
			return nil
		})
	if !errors.Is(err, sinkErr) {
		t.Fatalf("err = %v, want wrapped sink error", err)
	}
}

func TestContextCancellationAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once atomic.Bool
	p := New[item]("t",
		Stage[item]{Name: "slow", Workers: 1, Fn: func(ctx context.Context, it item) (item, error) {
			if once.CompareAndSwap(false, true) {
				close(started)
			}
			select {
			case <-ctx.Done():
				return it, ctx.Err()
			case <-time.After(10 * time.Second):
				return it, nil
			}
		}},
	)
	done := make(chan error, 1)
	go func() {
		done <- p.Run(ctx,
			IndexedSource(100, func(i int) item { return item{idx: i} }),
			func(item) error { return nil })
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled pipeline did not stop within 5s")
	}
}

func TestBackpressureBoundsInFlight(t *testing.T) {
	// A slow sink must throttle the source: with every buffer bounded,
	// the number of emitted-but-unsunk items can never exceed the total
	// channel capacity plus one in-flight item per worker. A stage's
	// input channel and the sink channel after the last stage each hold
	// 2×Workers items.
	var emitted, sunk atomic.Int64
	release := make(chan struct{})
	const workers = 2
	const buffer = 2 * workers
	p := New[item]("t",
		Stage[item]{Name: "pass", Workers: workers, Fn: appendStage("p")},
	)
	for _, st := range p.Stats() {
		if st.QueueCap != buffer {
			t.Fatalf("stage %s queue cap %d, want 2×Workers = %d", st.Name, st.QueueCap, buffer)
		}
	}
	done := make(chan error, 1)
	go func() {
		done <- p.Run(context.Background(),
			func(ctx context.Context, emit func(item) error) error {
				for i := 0; i < 500; i++ {
					if err := emit(item{idx: i}); err != nil {
						return err
					}
					emitted.Add(1)
				}
				return nil
			},
			func(item) error {
				<-release
				sunk.Add(1)
				return nil
			})
	}()
	// Let the source run as far ahead as the buffers allow, then check
	// the gap. Capacity: stage input buffer + sink channel buffer +
	// workers in flight + 1 item held by the blocked sink.
	time.Sleep(200 * time.Millisecond)
	gap := emitted.Load() - sunk.Load()
	maxGap := int64(buffer + buffer + workers + 1)
	if gap > maxGap {
		t.Fatalf("source ran %d items ahead of the sink; backpressure bound is %d", gap, maxGap)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if sunk.Load() != 500 {
		t.Fatalf("sunk %d items, want 500", sunk.Load())
	}
}

func TestStatsObserveLatencyAndLiveProgress(t *testing.T) {
	const n = 40
	p := New[item]("t",
		Stage[item]{Name: "sleepy", Workers: 4, Fn: func(_ context.Context, it item) (item, error) {
			time.Sleep(2 * time.Millisecond)
			return it, nil
		}},
	)
	// Poll stats mid-run to prove the snapshot is usable concurrently.
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				for _, st := range p.Stats() {
					if st.QueueDepth > st.QueueCap {
						panic(fmt.Sprintf("queue depth %d over cap %d", st.QueueDepth, st.QueueCap))
					}
				}
			}
		}
	}()
	err := p.Run(context.Background(),
		IndexedSource(n, func(i int) item { return item{idx: i} }),
		func(item) error { return nil })
	close(stop)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()[0]
	if st.AvgLatency < time.Millisecond {
		t.Fatalf("avg latency %v, want >= 1ms for a 2ms stage", st.AvgLatency)
	}
	if st.MaxLatency < st.AvgLatency {
		t.Fatalf("max latency %v below avg %v", st.MaxLatency, st.AvgLatency)
	}
	if inFlight := st.In - (st.Out + st.Skipped + st.Errors + st.DeadLetters); inFlight != 0 {
		t.Fatalf("in-flight %d after drain", inFlight)
	}
}

// TestCancelAfterDrainReturnsNil is the regression test for Run
// reporting ctx.Err() even though every item had already drained: a
// caller cancelling its context after completion (a common defer
// pattern) must still see success.
func TestCancelAfterDrainReturnsNil(t *testing.T) {
	const n = 25
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := New[item]("t", Stage[item]{Name: "a", Workers: 2, Fn: appendStage("a")})
	var sunk int
	err := p.Run(ctx,
		IndexedSource(n, func(i int) item { return item{idx: i} }),
		func(it item) error {
			sunk++
			if sunk == n {
				// Cancellation lands after the last delivery but before
				// Run returns — exactly the window the bug lived in.
				cancel()
			}
			return nil
		})
	if err != nil {
		t.Fatalf("fully drained run returned %v, want nil", err)
	}
	if sunk != n {
		t.Fatalf("sunk %d items, want %d", sunk, n)
	}
}

// TestSourceOwnCanceledErrorPropagates is the regression test for
// source errors being swallowed whenever they wrapped context.Canceled:
// a source whose upstream (an HTTP stream, a job queue) was cancelled
// for its own reasons must fail the run, because the pipeline itself
// never initiated any cancellation.
func TestSourceOwnCanceledErrorPropagates(t *testing.T) {
	upstream := fmt.Errorf("recording feed dropped: %w", context.Canceled)
	p := New[item]("t", Stage[item]{Name: "a", Fn: appendStage("a")})
	err := p.Run(context.Background(),
		func(ctx context.Context, emit func(item) error) error {
			if err := emit(item{idx: 0}); err != nil {
				return err
			}
			return upstream
		},
		func(item) error { return nil })
	if !errors.Is(err, upstream) {
		t.Fatalf("err = %v, want the source's own error", err)
	}
	if !strings.Contains(err.Error(), "source") {
		t.Fatalf("error %q does not attribute the failure to the source", err)
	}
}

// TestPipelineAbortStillSuppressesSourceCancel pins the other side of
// the fix: when the pipeline cancels (stage failure), the ctx.Err the
// source echoes back must NOT displace the real error.
func TestPipelineAbortStillSuppressesSourceCancel(t *testing.T) {
	boom := errors.New("boom")
	p := New[item]("t",
		Stage[item]{Name: "explode", Fn: func(_ context.Context, it item) (item, error) {
			return it, boom
		}},
	)
	err := p.Run(context.Background(),
		func(ctx context.Context, emit func(item) error) error {
			for i := 0; ; i++ {
				if err := emit(item{idx: i}); err != nil {
					return err // echoes the pipeline's own cancellation
				}
			}
		},
		func(item) error { return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the stage error, not the echoed cancellation", err)
	}
}

func TestEmptySourceDrainsClean(t *testing.T) {
	p := New[item]("t",
		Stage[item]{Name: "a", Workers: 3, Fn: appendStage("a")},
		Stage[item]{Name: "b", Workers: 2, Fn: appendStage("b")},
	)
	err := p.Run(context.Background(), IndexedSource(0, func(int) item { return item{} }),
		func(item) error { t.Error("sink saw an item from an empty source"); return nil })
	if err != nil {
		t.Fatalf("empty source run returned %v, want nil", err)
	}
	if p.delivered.Load() != 0 {
		t.Fatalf("delivered %d from an empty source", p.delivered.Load())
	}
}

func TestRunTwiceRejected(t *testing.T) {
	p := New[item]("t", Stage[item]{Name: "a", Fn: appendStage("a")})
	src := IndexedSource(1, func(i int) item { return item{idx: i} })
	if err := p.Run(context.Background(), src, func(item) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(context.Background(), src, func(item) error { return nil }); err == nil {
		t.Fatal("second Run succeeded, want error")
	}
}

// BenchmarkLatencyOverlap models the deployment the paper describes —
// decoding handed to an external recognizer with real per-call latency —
// where pipelining pays even on one core: N workers overlap N waits.
func BenchmarkLatencyOverlap(b *testing.B) {
	const callLatency = 200 * time.Microsecond
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := New[item]("bench",
				Stage[item]{Name: "remote-asr", Workers: workers, Fn: func(_ context.Context, it item) (item, error) {
					time.Sleep(callLatency)
					return it, nil
				}},
			)
			b.ResetTimer()
			err := p.Run(context.Background(),
				IndexedSource(b.N, func(i int) item { return item{idx: i} }),
				func(item) error { return nil })
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "items/s")
		})
	}
}

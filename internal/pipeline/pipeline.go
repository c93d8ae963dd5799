// Package pipeline is the streaming execution substrate for the Figure-3
// flow: a linear sequence of stages (ASR/cleaning → linking → annotation
// → indexing) run as worker pools connected by bounded channels.
//
// The design targets the paper's §III volume challenge ("one of the help
// desk accounts ... generated about 150GB of recordings every day"): a
// contact centre never stops ingesting, so the pipeline processes items
// as they arrive instead of materializing whole-corpus intermediates.
// Bounded channels give backpressure — a slow stage throttles the source
// rather than letting queues grow without limit — and per-stage worker
// counts let the expensive stages (decoding) scale independently of the
// cheap ones (field attachment).
//
// Semantics:
//
//   - Items flow source → stage 1 → ... → stage n → sink. Each stage
//     transforms an item or drops it by returning ErrSkip.
//   - One FaultTolerance governs every stage. A transiently failing
//     attempt is retried per its RetryPolicy: capped exponential backoff
//     whose jitter is drawn deterministically (internal/rng keyed by
//     seed, stage, item key, attempt), so retry schedules are
//     reproducible. An optional Timeout bounds each attempt for
//     functions that honor ctx, and an optional Inject hook fails
//     chosen attempts on purpose.
//   - An item whose retries are exhausted (or whose error is permanent)
//     either fails the run — the internal context is cancelled, all
//     workers stop promptly, and Run returns the first error observed —
//     or, when a dead-letter budget is configured
//     (FaultTolerance.MaxDeadLetters), is parked in the dead-letter
//     queue and the run continues. Exceeding the budget fails fast with
//     an error wrapping the first dead letter's error.
//   - Cancelling the caller's context aborts the run the same way.
//   - On normal source exhaustion the pipeline drains: channel closes
//     cascade stage by stage, so every emitted item is either delivered
//     to the sink or accounted for as skipped.
//   - The sink runs on a single goroutine, so it may touch unsynchronized
//     state; item arrival ORDER at the sink is nondeterministic whenever
//     any stage has more than one worker. Callers that need deterministic
//     output must make their sink order-insensitive (see mining.StreamIndex)
//     or key results by an item index carried through the stages.
//
// Stats() may be called concurrently with Run — counters are atomics and
// queue depths are sampled — which is what powers the live `-stream`
// dashboards and lets operators watch throughput while indexing runs.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ErrSkip, returned by a stage function, drops the item from the flow
// without failing the run (the cleaning gate discarding spam, for
// example). It is counted in the stage's Skipped counter.
var ErrSkip = errors.New("pipeline: skip item")

// Stage describes one worker pool in the flow. Its input channel holds
// 2×Workers items: enough to keep the pool busy without unbounded
// queueing.
type Stage[T any] struct {
	// Name identifies the stage in stats and error messages.
	Name string
	// Workers is the pool size; values < 1 mean one worker.
	Workers int
	// Fn transforms one item. It must be safe for concurrent use when
	// Workers > 1. Returning ErrSkip drops the item; transient errors
	// are retried per the pipeline's FaultTolerance; any other error
	// dead-letters the item or aborts the whole run, depending on its
	// budget.
	Fn func(ctx context.Context, item T) (T, error)
}

func (s Stage[T]) workers() int {
	if s.Workers < 1 {
		return 1
	}
	return s.Workers
}

// StageStats is a point-in-time snapshot of one stage's counters, and
// the wire form /statsz publishes: the JSON names are a contract
// dashboards key on (TestStageStatsJSONSchemaStable pins them), and the
// latencies encode as integer nanoseconds.
type StageStats struct {
	Name    string `json:"name"`
	Workers int    `json:"workers"`
	// In counts items received; Out counts items passed downstream;
	// Skipped counts ErrSkip drops; Errors counts items that failed the
	// run (fail-fast path).
	In      uint64 `json:"in"`
	Out     uint64 `json:"out"`
	Skipped uint64 `json:"skipped"`
	Errors  uint64 `json:"errors"`
	// Retries counts re-run attempts after transient failures; Timeouts
	// counts attempts cut off by FaultTolerance.Timeout; DeadLetters
	// counts items parked in the dead-letter queue by this stage.
	Retries     uint64 `json:"retries"`
	Timeouts    uint64 `json:"timeouts"`
	DeadLetters uint64 `json:"dead_letters"`
	// QueueDepth is the number of items waiting in the stage's input
	// channel at sample time; QueueCap is its capacity.
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	// AvgLatency and MaxLatency cover the stage function only (queue wait
	// excluded), over attempts run so far.
	AvgLatency time.Duration `json:"avg_latency_ns"`
	MaxLatency time.Duration `json:"max_latency_ns"`
}

// stageState holds a stage's live counters, updated with atomics so
// Stats can snapshot them mid-run.
type stageState struct {
	in, out, skipped, errs atomic.Uint64
	retries, timeouts      atomic.Uint64
	deadLetters            atomic.Uint64
	latNanos               atomic.Int64
	maxLatNanos            atomic.Int64
}

func (st *stageState) observe(lat time.Duration) {
	n := lat.Nanoseconds()
	st.latNanos.Add(n)
	for {
		cur := st.maxLatNanos.Load()
		if n <= cur || st.maxLatNanos.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Pipeline is a configured linear flow. Build one with New, run it once
// with Run; Stats may be called at any time, including during the run.
type Pipeline[T any] struct {
	name    string
	stages  []Stage[T]
	states  []*stageState
	chans   []chan T // chans[i] feeds stage i; chans[len(stages)] feeds the sink
	started atomic.Bool

	// Fault-tolerance configuration (WithKey / WithSeed /
	// WithFaultTolerance, all pre-Run).
	keyFn func(T) string
	seed  uint64
	ft    FaultTolerance

	emitted   atomic.Uint64
	delivered atomic.Uint64

	dlMu        sync.Mutex
	deadLetters []DeadLetter
}

// New assembles a pipeline from stages. It panics on an empty stage list
// or an unnamed/nil-Fn stage — these are programming errors, not runtime
// conditions.
func New[T any](name string, stages ...Stage[T]) *Pipeline[T] {
	if len(stages) == 0 {
		panic("pipeline: no stages")
	}
	p := &Pipeline[T]{name: name, stages: stages}
	for i, s := range stages {
		if s.Name == "" || s.Fn == nil {
			panic(fmt.Sprintf("pipeline %s: stage %d needs a name and a function", name, i))
		}
		p.states = append(p.states, &stageState{})
		p.chans = append(p.chans, make(chan T, 2*s.workers()))
	}
	// The sink channel: sized like the last stage's output burst.
	p.chans = append(p.chans, make(chan T, 2*stages[len(stages)-1].workers()))
	return p
}

// configure guards the With* setters: fault-tolerance knobs are part of
// the pipeline's shape and must be fixed before Run.
func (p *Pipeline[T]) configure(what string) {
	if p.started.Load() {
		panic(fmt.Sprintf("pipeline %s: %s after Run", p.name, what))
	}
}

// WithKey sets the item-identity function used for dead-letter records
// and per-item backoff jitter. Without it every item shares the empty
// key. Must be called before Run; returns p for chaining.
func (p *Pipeline[T]) WithKey(fn func(T) string) *Pipeline[T] {
	p.configure("WithKey")
	p.keyFn = fn
	return p
}

// WithSeed sets the seed from which backoff jitter streams are split.
// Must be called before Run; returns p for chaining.
func (p *Pipeline[T]) WithSeed(seed uint64) *Pipeline[T] {
	p.configure("WithSeed")
	p.seed = seed
	return p
}

// WithFaultTolerance sets the policy every stage runs under: retry,
// per-attempt timeout, fault injection and the dead-letter budget. Must
// be called before Run; returns p for chaining.
func (p *Pipeline[T]) WithFaultTolerance(ft FaultTolerance) *Pipeline[T] {
	p.configure("WithFaultTolerance")
	p.ft = ft
	return p
}

// key extracts the item identity, or "" without a key function.
func (p *Pipeline[T]) key(item T) string {
	if p.keyFn == nil {
		return ""
	}
	return p.keyFn(item)
}

// DeadLetters snapshots the dead-letter queue: every item that
// exhausted its retries so far, sorted by stage then key so the report
// is stable regardless of worker scheduling. Safe to call while Run is
// in flight.
func (p *Pipeline[T]) DeadLetters() []DeadLetter {
	p.dlMu.Lock()
	out := append([]DeadLetter(nil), p.deadLetters...)
	p.dlMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stage != out[j].Stage {
			return out[i].Stage < out[j].Stage
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Stats snapshots every stage's counters. Safe to call while Run is in
// flight; queue depths are instantaneous samples.
func (p *Pipeline[T]) Stats() []StageStats {
	out := make([]StageStats, len(p.stages))
	for i, s := range p.stages {
		st := p.states[i]
		stat := StageStats{
			Name:        s.Name,
			Workers:     s.workers(),
			In:          st.in.Load(),
			Out:         st.out.Load(),
			Skipped:     st.skipped.Load(),
			Errors:      st.errs.Load(),
			Retries:     st.retries.Load(),
			Timeouts:    st.timeouts.Load(),
			DeadLetters: st.deadLetters.Load(),
			QueueDepth:  len(p.chans[i]),
			QueueCap:    cap(p.chans[i]),
			MaxLatency:  time.Duration(st.maxLatNanos.Load()),
		}
		// Every finished attempt — including ones that were retried —
		// contributed one latency observation.
		if attempts := stat.Out + stat.Skipped + stat.Errors + stat.DeadLetters + stat.Retries; attempts > 0 {
			stat.AvgLatency = time.Duration(st.latNanos.Load() / int64(attempts))
		}
		out[i] = stat
	}
	return out
}

// Source feeds a pipeline: it calls emit once per item and returns when
// the input is exhausted (or emit reports cancellation). IndexedSource
// covers the common case.
type Source[T any] func(ctx context.Context, emit func(T) error) error

// IndexedSource emits make(i) for i in [0, n) — handy when the item type
// wraps a position so the sink can key results deterministically.
func IndexedSource[T any](n int, make func(i int) T) Source[T] {
	return func(ctx context.Context, emit func(T) error) error {
		for i := 0; i < n; i++ {
			if err := emit(make(i)); err != nil {
				return err
			}
		}
		return nil
	}
}

// runItem drives one item through a stage under the pipeline's
// FaultTolerance: each attempt consults Inject (when set) and then runs
// Fn, both under the attempt's timeout; transient failures are retried
// per Retry, and a final failure either dead-letters the item (budget
// configured) or fails the run. It reports whether the item should be
// delivered downstream and whether the worker must stop.
func (p *Pipeline[T]) runItem(ctx context.Context, stage Stage[T], st *stageState, item T, fail func(error)) (next T, deliver, abort bool) {
	ft := &p.ft
	key := p.key(item)
	for attempt := 1; ; attempt++ {
		actx, acancel := ctx, context.CancelFunc(func() {})
		if ft.Timeout > 0 {
			actx, acancel = context.WithTimeout(ctx, ft.Timeout)
		}
		start := time.Now()
		var err error
		if ft.Inject != nil {
			err = ft.Inject(stage.Name, key, attempt)
		}
		if err == nil {
			next, err = stage.Fn(actx, item)
		}
		st.observe(time.Since(start))
		timedOut := err != nil && ft.Timeout > 0 && errors.Is(actx.Err(), context.DeadlineExceeded)
		acancel()
		switch {
		case err == nil:
			return next, true, false
		case errors.Is(err, ErrSkip):
			st.skipped.Add(1)
			return next, false, false
		}
		if ctx.Err() != nil {
			// The run is already aborting (caller cancel or another
			// failure); this error is cancellation collateral, not news.
			return next, false, true
		}
		if timedOut {
			st.timeouts.Add(1)
			err = fmt.Errorf("attempt timed out after %v: %w", ft.Timeout, err)
		}
		if (timedOut || isTransient(err)) && attempt < ft.Retry.maxAttempts() {
			st.retries.Add(1)
			if !sleepCtx(ctx, ft.Retry.Backoff(p.seed, stage.Name, key, attempt)) {
				return next, false, true
			}
			continue
		}
		// Permanent failure, or transient with the attempt budget spent.
		if attempt > 1 {
			err = fmt.Errorf("after %d attempts: %w", attempt, err)
		}
		if ft.MaxDeadLetters > 0 {
			st.deadLetters.Add(1)
			p.recordDeadLetter(DeadLetter{Key: key, Stage: stage.Name, Attempts: attempt, Err: err}, fail)
			return next, false, false
		}
		st.errs.Add(1)
		fail(fmt.Errorf("pipeline %s: stage %s: %w", p.name, stage.Name, err))
		return next, false, true
	}
}

// recordDeadLetter parks a failed item and enforces the budget: the
// dead letter that pushes the queue past MaxDeadLetters fails the run
// with the FIRST dead letter's error, which is the root cause an
// operator wants, not whichever straw broke last.
func (p *Pipeline[T]) recordDeadLetter(dl DeadLetter, fail func(error)) {
	p.dlMu.Lock()
	p.deadLetters = append(p.deadLetters, dl)
	n := len(p.deadLetters)
	first := p.deadLetters[0]
	p.dlMu.Unlock()
	if n > p.ft.MaxDeadLetters {
		fail(fmt.Errorf("pipeline %s: dead-letter budget %d exceeded; first dead letter (stage %s, item %q): %w",
			p.name, p.ft.MaxDeadLetters, first.Stage, first.Key, first.Err))
	}
}

// drained reports whether every emitted item was accounted for:
// delivered to the sink, skipped by a stage, or dead-lettered. Items
// dropped by cancellation mid-flow break the identity, which is how Run
// tells a clean drain from an abort that happened to leave firstErr
// unset.
func (p *Pipeline[T]) drained() bool {
	accounted := p.delivered.Load()
	for _, st := range p.states {
		accounted += st.skipped.Load() + st.deadLetters.Load()
	}
	return accounted == p.emitted.Load()
}

// Run drives the flow until the source is exhausted and every in-flight
// item has drained to the sink, a stage or sink error aborts the run, or
// ctx is cancelled. It returns the first error observed (nil on a full
// drain — even if the caller's context is cancelled after the last item
// has already landed). Run may be called at most once per Pipeline.
func (p *Pipeline[T]) Run(ctx context.Context, source Source[T], sink func(item T) error) error {
	if source == nil || sink == nil {
		panic("pipeline: Run needs a source and a sink")
	}
	if !p.started.CompareAndSwap(false, true) {
		return fmt.Errorf("pipeline %s: Run called twice", p.name)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		errMu.Unlock()
	}

	// Source goroutine: emit applies backpressure by blocking on the
	// first stage's bounded channel.
	var srcWG sync.WaitGroup
	srcWG.Add(1)
	go func() {
		defer srcWG.Done()
		defer close(p.chans[0])
		emit := func(item T) error {
			select {
			case p.chans[0] <- item:
				p.emitted.Add(1)
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if err := source(ctx, emit); err != nil {
			// Suppress only the pipeline-initiated (or caller-initiated)
			// cancellation echoing back through emit; a source whose own
			// error happens to wrap context.Canceled while the pipeline
			// is healthy is a real failure and must propagate.
			if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
				return
			}
			fail(fmt.Errorf("pipeline %s: source: %w", p.name, err))
		}
	}()

	// Stage worker pools. Each stage closes its output channel once all
	// its workers return, cascading the drain.
	var stageWG sync.WaitGroup
	for i := range p.stages {
		stage, st := p.stages[i], p.states[i]
		in, out := p.chans[i], p.chans[i+1]
		var poolWG sync.WaitGroup
		for w := 0; w < stage.workers(); w++ {
			poolWG.Add(1)
			go func() {
				defer poolWG.Done()
				for {
					var item T
					var ok bool
					select {
					case item, ok = <-in:
						if !ok {
							return
						}
					case <-ctx.Done():
						return
					}
					st.in.Add(1)
					next, deliver, abort := p.runItem(ctx, stage, st, item, fail)
					if abort {
						return
					}
					if deliver {
						st.out.Add(1)
						select {
						case out <- next:
						case <-ctx.Done():
							return
						}
					}
				}
			}()
		}
		stageWG.Add(1)
		go func() {
			defer stageWG.Done()
			poolWG.Wait()
			close(out)
		}()
	}

	// Sink: single goroutine, so callers may write unsynchronized state.
	var sinkWG sync.WaitGroup
	sinkWG.Add(1)
	go func() {
		defer sinkWG.Done()
		for item := range p.chans[len(p.chans)-1] {
			if ctx.Err() != nil {
				// Aborted: stop consuming; upstream workers unblock via
				// ctx.Done and the close cascade still completes.
				return
			}
			if err := sink(item); err != nil {
				fail(fmt.Errorf("pipeline %s: sink: %w", p.name, err))
				return
			}
			p.delivered.Add(1)
		}
	}()

	srcWG.Wait()
	stageWG.Wait()
	sinkWG.Wait()

	errMu.Lock()
	defer errMu.Unlock()
	if firstErr != nil {
		return firstErr
	}
	// A cancellation that lands after the last item has drained did not
	// cost the run anything — report success. Only when the abort
	// actually dropped items is the context error the outcome.
	if p.drained() {
		return nil
	}
	return ctx.Err()
}

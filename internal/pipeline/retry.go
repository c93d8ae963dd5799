package pipeline

import (
	"context"
	"errors"
	"fmt"
	"time"

	"bivoc/internal/rng"
)

// ErrTransient marks an error as retryable. Stage functions (and fault
// injectors) wrap recoverable failures with Transient so the retry
// classifier, isTransient, retries them; anything else is treated as
// permanent.
var ErrTransient = errors.New("pipeline: transient fault")

// Transient wraps err so isTransient reports it retryable. The
// original error stays reachable through errors.Is/As.
func Transient(err error) error {
	return fmt.Errorf("%w: %w", ErrTransient, err)
}

// isTransient is the retry classifier of every RetryPolicy: errors marked
// with Transient and per-attempt timeouts (context.DeadlineExceeded) are
// retryable, everything else is permanent. Permanent failures never burn
// retry attempts — they go straight to the dead-letter queue (or fail the
// run when no budget is configured).
func isTransient(err error) bool {
	return errors.Is(err, ErrTransient) || errors.Is(err, context.DeadlineExceeded)
}

// RetryPolicy controls re-execution of a stage function on transient
// failures (isTransient decides which). The zero value disables retry
// (every failure is final), which is the pre-fault-tolerance behaviour.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per item, including the
	// first; values <= 1 disable retry.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt (default 1ms).
	// The delay doubles each further attempt, up to 256×BaseDelay.
	BaseDelay time.Duration
	// Jitter in (0, 1] shrinks each delay by a deterministically drawn
	// fraction of itself — delay × [1-Jitter, 1] — decorrelating retry
	// storms without sacrificing reproducibility: the draw is keyed by
	// pipeline seed, stage name, item key and attempt number, never by
	// wall clock.
	Jitter float64
}

// maxAttempts normalizes MaxAttempts to at least one try.
func (pol RetryPolicy) maxAttempts() int {
	if pol.MaxAttempts < 1 {
		return 1
	}
	return pol.MaxAttempts
}

// Backoff returns the delay before attempt+1, after `attempt` failed
// tries: capped exponential growth from BaseDelay with deterministic
// jitter. The same (seed, stage, key, attempt) always yields the same
// delay — retry timing is part of the reproducible experiment record,
// not a source of nondeterminism.
func (pol RetryPolicy) Backoff(seed uint64, stage, key string, attempt int) time.Duration {
	base := pol.BaseDelay
	if base <= 0 {
		base = time.Millisecond
	}
	max := 256 * base
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if pol.Jitter > 0 {
		frac := pol.Jitter
		if frac > 1 {
			frac = 1
		}
		r := rng.New(seed).SplitString("backoff:" + stage).SplitString(key).Split(uint64(attempt))
		d = time.Duration(float64(d) * (1 - frac*r.Float64()))
	}
	return d
}

// FaultTolerance is the policy a pipeline runs every stage under:
// one retry policy and per-attempt timeout, the fault-injection hook,
// and the dead-letter budget. The zero value reproduces fail-fast
// semantics exactly.
type FaultTolerance struct {
	// Retry re-runs a stage function on transient failures. A retried
	// function must be replayable: same item in, same result out
	// (per-item RNG substreams, no partial external effects).
	Retry RetryPolicy
	// Timeout bounds each attempt via a derived context; zero means
	// none. The stage function must honor ctx for the timeout to bite —
	// the pipeline never abandons a running goroutine. A timed-out
	// attempt counts as transient.
	Timeout time.Duration
	// Inject, when set, is consulted at the start of every attempt and
	// can fail it on purpose (see FaultFn).
	Inject FaultFn
	// MaxDeadLetters is how many items may exhaust their retries (or
	// fail permanently) and be parked in the dead-letter queue before
	// the run fails fast. Zero keeps fail-fast-on-first-error.
	MaxDeadLetters int
}

// FaultFn decides whether to inject a failure into a stage attempt.
// It is called before the stage function, inside the same timed
// attempt, with the stage name, the item's key, and the 1-based attempt
// number for that item in that stage; returning a non-nil error makes
// the attempt fail with it (wrap with Transient to exercise the retry
// path, return a plain error to exercise dead-lettering). Returning nil
// lets the attempt through.
//
// This is the chaos-testing hook behind the fault-injection suite: a
// test can prove that transient faults retried to success leave
// reports byte-identical to a fault-free run, and that permanent
// faults degrade into dead letters instead of crashes. FaultFn must be
// safe for concurrent use and deterministic in its arguments — key
// wall-clock- or scheduling-dependent faults and the run stops being
// reproducible.
type FaultFn func(stage, key string, attempt int) error

// DeadLetter records one item that exhausted its retries (or failed
// permanently) and was dropped from the flow instead of aborting the
// run: which item, where it died, how hard the pipeline tried, and why.
type DeadLetter struct {
	// Key identifies the item (Pipeline.WithKey); empty when no key
	// function is configured.
	Key string
	// Stage is the stage the item died in.
	Stage string
	// Attempts is how many times the stage function ran for the item.
	Attempts int
	// Err is the final attempt's error.
	Err error
}

// sleepCtx waits out a backoff delay, returning false if ctx is
// cancelled first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

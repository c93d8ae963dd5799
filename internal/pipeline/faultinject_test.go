package pipeline

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// failFirst returns a FaultFn injecting a transient fault into the
// first n attempts of every item whose key matches keep.
func failFirst(n int, keep func(key string) bool) FaultFn {
	return func(stage, key string, attempt int) error {
		if attempt <= n && keep(key) {
			return Transient(fmt.Errorf("injected transient fault (stage %s, item %s, attempt %d)", stage, key, attempt))
		}
		return nil
	}
}

// onStage narrows fault to the attempts of one stage.
func onStage(name string, fault FaultFn) FaultFn {
	return func(stage, key string, attempt int) error {
		if stage != name {
			return nil
		}
		return fault(stage, key, attempt)
	}
}

func itemKey(it item) string { return strconv.Itoa(it.idx) }

func everyThird(key string) bool {
	n, _ := strconv.Atoi(key)
	return n%3 == 0
}

func TestTransientFaultsRetriedToSuccess(t *testing.T) {
	const n = 90
	pol := RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Microsecond, Jitter: 0.5}
	p := New[item]("t",
		Stage[item]{Name: "a", Workers: 4, Fn: appendStage("a")},
		Stage[item]{Name: "b", Workers: 2, Fn: appendStage("b")},
	)
	p.WithKey(itemKey).WithSeed(7).WithFaultTolerance(FaultTolerance{
		Retry:  pol,
		Inject: onStage("a", failFirst(2, everyThird)),
	})

	got := make([]string, n)
	err := p.Run(context.Background(),
		IndexedSource(n, func(i int) item { return item{idx: i} }),
		func(it item) error { got[it.idx] = it.trace; return nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range got {
		if tr != "ab" {
			t.Fatalf("item %d trace %q, want ab — retries must replay the full stage", i, tr)
		}
	}
	st := p.Stats()[0]
	// 30 items fail twice each before succeeding on the third attempt.
	if st.Retries != 60 {
		t.Fatalf("stage a retries = %d, want 60", st.Retries)
	}
	if st.Out != n || st.Errors != 0 || st.DeadLetters != 0 {
		t.Fatalf("stage a counters %+v, want out=%d errors=0 dead=0", st, n)
	}
}

func TestRetryExhaustionFailsFastWithoutBudget(t *testing.T) {
	p := New[item]("t",
		Stage[item]{Name: "a", Workers: 2, Fn: appendStage("a")},
	)
	p.WithKey(itemKey).WithFaultTolerance(FaultTolerance{
		Retry:  RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Microsecond},
		Inject: failFirst(99, func(key string) bool { return key == "5" }),
	})
	err := p.Run(context.Background(),
		IndexedSource(20, func(i int) item { return item{idx: i} }),
		func(item) error { return nil })
	if err == nil || !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v, want wrapped injected fault", err)
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("error %q does not report the attempt count", err)
	}
}

func TestPermanentFaultsDeadLetter(t *testing.T) {
	const n = 60
	perm := errors.New("corrupt recording")
	p := New[item]("t",
		Stage[item]{Name: "a", Workers: 3, Fn: appendStage("a")},
		Stage[item]{Name: "b", Workers: 2, Fn: appendStage("b")},
	)
	p.WithKey(itemKey).WithFaultTolerance(FaultTolerance{
		Retry: RetryPolicy{MaxAttempts: 4, BaseDelay: 10 * time.Microsecond},
		Inject: onStage("a", func(stage, key string, attempt int) error {
			if everyThird(key) {
				return perm
			}
			return nil
		}),
		MaxDeadLetters: n,
	})
	var delivered int
	err := p.Run(context.Background(),
		IndexedSource(n, func(i int) item { return item{idx: i} }),
		func(item) error { delivered++; return nil })
	if err != nil {
		t.Fatalf("run with dead-letter budget failed: %v", err)
	}
	dls := p.DeadLetters()
	if len(dls) != n/3 {
		t.Fatalf("%d dead letters, want %d", len(dls), n/3)
	}
	if delivered != n-n/3 {
		t.Fatalf("delivered %d, want %d", delivered, n-n/3)
	}
	for _, dl := range dls {
		if dl.Stage != "a" || dl.Attempts != 1 || !errors.Is(dl.Err, perm) {
			t.Fatalf("dead letter %+v: want stage a, 1 attempt (permanent: no retries), wrapped cause", dl)
		}
	}
	// Sorted by key → stable report order.
	for i := 1; i < len(dls); i++ {
		if dls[i-1].Key >= dls[i].Key {
			t.Fatalf("dead letters not sorted: %q before %q", dls[i-1].Key, dls[i].Key)
		}
	}
	if st := p.Stats()[0]; st.DeadLetters != uint64(n/3) || st.Retries != 0 {
		t.Fatalf("stage a counters %+v, want dead=%d retries=0", st, n/3)
	}
}

func TestTransientExhaustionDeadLettersWithAttempts(t *testing.T) {
	p := New[item]("t",
		Stage[item]{Name: "a", Fn: appendStage("a")},
	)
	p.WithKey(itemKey).WithFaultTolerance(FaultTolerance{
		Retry:          RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Microsecond},
		Inject:         failFirst(99, func(key string) bool { return key == "2" }),
		MaxDeadLetters: 5,
	})
	err := p.Run(context.Background(),
		IndexedSource(6, func(i int) item { return item{idx: i} }),
		func(item) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	dls := p.DeadLetters()
	if len(dls) != 1 || dls[0].Attempts != 3 {
		t.Fatalf("dead letters %+v, want one with 3 attempts", dls)
	}
}

func TestDeadLetterBudgetExceededFailsWithFirstError(t *testing.T) {
	p := New[item]("t",
		Stage[item]{Name: "a", Workers: 1, Fn: appendStage("a")},
	)
	p.WithKey(itemKey).WithFaultTolerance(FaultTolerance{
		Inject: func(stage, key string, attempt int) error {
			return fmt.Errorf("permanent fault on item %s", key)
		},
		MaxDeadLetters: 2,
	})
	err := p.Run(context.Background(),
		IndexedSource(10, func(i int) item { return item{idx: i} }),
		func(item) error { return nil })
	if err == nil {
		t.Fatal("run exceeded the dead-letter budget but reported success")
	}
	if !strings.Contains(err.Error(), "dead-letter budget 2 exceeded") {
		t.Fatalf("error %q does not mention the budget", err)
	}
	// Single worker → items in order → the first dead letter is item 0.
	if !strings.Contains(err.Error(), "permanent fault on item 0") {
		t.Fatalf("error %q does not carry the first dead-letter error", err)
	}
}

func TestStageTimeoutRetries(t *testing.T) {
	const n = 12
	var stalled bool
	p := New[item]("t",
		Stage[item]{Name: "slow", Workers: 1,
			Fn: func(ctx context.Context, it item) (item, error) {
				if it.idx == 4 && !stalled {
					stalled = true // first attempt of item 4 stalls past the timeout
					select {
					case <-ctx.Done():
						return it, ctx.Err()
					case <-time.After(10 * time.Second):
					}
				}
				return it, nil
			}},
	)
	p.WithFaultTolerance(FaultTolerance{
		Retry:   RetryPolicy{MaxAttempts: 2, BaseDelay: 10 * time.Microsecond},
		Timeout: 5 * time.Millisecond,
	})
	err := p.Run(context.Background(),
		IndexedSource(n, func(i int) item { return item{idx: i} }),
		func(item) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()[0]
	if st.Timeouts != 1 || st.Retries != 1 || st.Out != n {
		t.Fatalf("counters %+v, want 1 timeout retried to success and all %d delivered", st, n)
	}
}

func TestBackoffDeterministicJitter(t *testing.T) {
	// The exponential backoff stops doubling at 256×BaseDelay, which
	// attempt 9 reaches.
	const base, limit = time.Millisecond, 256 * time.Millisecond
	pol := RetryPolicy{MaxAttempts: 12, BaseDelay: base, Jitter: 0.5}
	for attempt := 1; attempt <= 11; attempt++ {
		a := pol.Backoff(42, "decode", "CALL-007", attempt)
		b := pol.Backoff(42, "decode", "CALL-007", attempt)
		if a != b {
			t.Fatalf("attempt %d: backoff not deterministic (%v vs %v)", attempt, a, b)
		}
		if a > limit {
			t.Fatalf("attempt %d: backoff %v over the 256×BaseDelay cap", attempt, a)
		}
		uncapped := base << (attempt - 1)
		floor := uncapped / 2
		if uncapped > limit {
			floor = limit / 2
		}
		if a < floor {
			t.Fatalf("attempt %d: backoff %v below jitter floor %v", attempt, a, floor)
		}
	}
	noJitter := RetryPolicy{BaseDelay: base}
	if got := noJitter.Backoff(42, "decode", "CALL-007", 11); got != limit {
		t.Fatalf("unjittered backoff at attempt 11 = %v, want the cap %v", got, limit)
	}
	if pol.Backoff(42, "decode", "CALL-007", 3) == pol.Backoff(42, "decode", "CALL-008", 3) {
		t.Fatal("distinct item keys drew identical jitter")
	}
	if pol.Backoff(42, "decode", "CALL-007", 3) == pol.Backoff(43, "decode", "CALL-007", 3) {
		t.Fatal("distinct seeds drew identical jitter")
	}
}

// TestInjectFaultsCountsAttemptsPerItem pins FaultFn's attempt numbers:
// 1-based, counted per item and per stage, so a retry of one item in one
// stage moves no other item's count and starts no later stage's past 1.
func TestInjectFaultsCountsAttemptsPerItem(t *testing.T) {
	var mu sync.Mutex
	seen := map[string][]int{}
	p := New[item]("t",
		Stage[item]{Name: "a", Workers: 2, Fn: appendStage("a")},
		Stage[item]{Name: "b", Fn: appendStage("b")},
	)
	p.WithKey(itemKey).WithFaultTolerance(FaultTolerance{
		Retry: RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Microsecond},
		Inject: func(stage, key string, attempt int) error {
			mu.Lock()
			seen[stage+"/"+key] = append(seen[stage+"/"+key], attempt)
			mu.Unlock()
			if stage == "a" && key == "1" && attempt < 3 {
				return Transient(errors.New("flaky"))
			}
			return nil
		},
	})
	err := p.Run(context.Background(),
		IndexedSource(3, func(i int) item { return item{idx: i} }),
		func(item) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]int{
		"a/0": {1}, "a/1": {1, 2, 3}, "a/2": {1},
		"b/0": {1}, "b/1": {1}, "b/2": {1},
	}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("attempts seen by Inject = %v, want %v", seen, want)
	}
	if st := p.Stats(); st[0].Retries != 2 || st[1].Retries != 0 {
		t.Fatalf("retries a=%d b=%d, want 2 and 0", st[0].Retries, st[1].Retries)
	}
}

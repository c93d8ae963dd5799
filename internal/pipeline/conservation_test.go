package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// injected is the error a conservation trial's Inject returns: it names
// the attempt it failed, so a run's error can be traced to its item.
type injected struct {
	stage, key string
	attempt    int
}

func (e *injected) Error() string {
	return fmt.Sprintf("injected fault (stage %s, item %s, attempt %d)", e.stage, e.key, e.attempt)
}

// fate is what a trial does to one item in one stage: fail its first
// `transient` attempts transiently, or every attempt permanently, and
// skip it on the attempt that gets through.
type fate struct {
	transient int
	permanent bool
	skip      bool
}

// trial is one randomly drawn pipeline: its stages, its policy, and
// every item's fate in every stage.
type trial struct {
	n       int
	workers []int
	fates   [][]fate // fates[stage][item]
	ft      FaultTolerance
}

func drawTrial(r *rand.Rand) trial {
	tr := trial{n: r.Intn(120)}
	stages := 1 + r.Intn(3)
	for s := 0; s < stages; s++ {
		tr.workers = append(tr.workers, 1+r.Intn(4))
		skipRate, transientRate, permanentRate := 0.3*r.Float64(), 0.4*r.Float64(), 0.05*r.Float64()
		fates := make([]fate, tr.n)
		for i := range fates {
			fates[i].skip = r.Float64() < skipRate
			switch x := r.Float64(); {
			case x < permanentRate:
				fates[i].permanent = true
			case x < permanentRate+transientRate:
				fates[i].transient = 1 + r.Intn(4)
			}
		}
		tr.fates = append(tr.fates, fates)
	}
	tr.ft.Retry = RetryPolicy{MaxAttempts: 1 + r.Intn(4), BaseDelay: time.Microsecond, Jitter: r.Float64()}
	switch r.Intn(3) {
	case 0: // fail fast
	case 1:
		tr.ft.MaxDeadLetters = 1 + r.Intn(3)
	default:
		tr.ft.MaxDeadLetters = 1 + tr.n*len(tr.workers)
	}
	return tr
}

// TestConservationUnderRandomFaults holds the pipeline's accounting
// identities over seeded random pipelines: 1-3 stages of random worker
// counts, skip rates, transient and permanent Inject schedules, retry
// budgets and dead-letter budgets. A run that returns nil accounts for
// every emitted item as delivered, skipped or dead-lettered, stage by
// stage and in total, and counts as retries exactly the repeated
// attempts Inject saw; a run that overspends its dead-letter budget
// returns the first dead letter's error.
func TestConservationUnderRandomFaults(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 60
	}
	var clean, overBudget, failFast int
	for seed := 1; seed <= trials; seed++ {
		tr := drawTrial(rand.New(rand.NewSource(int64(seed))))
		switch checkTrial(t, seed, tr) {
		case "clean":
			clean++
		case "over budget":
			overBudget++
		case "fail fast":
			failFast++
		}
	}
	// The draw must exercise every outcome, or the identities above
	// were checked on fewer shapes than they claim.
	if clean == 0 || overBudget == 0 || failFast == 0 {
		t.Fatalf("outcomes over %d trials: %d clean, %d over budget, %d fail fast; want each at least once",
			trials, clean, overBudget, failFast)
	}
}

// expect walks every item through the trial's fates as the policy
// should: how many items each stage skips and dead-letters, and how many
// reach the sink.
func (tr trial) expect() (skipped, dead []uint64, delivered uint64) {
	skipped, dead = make([]uint64, len(tr.fates)), make([]uint64, len(tr.fates))
items:
	for i := 0; i < tr.n; i++ {
		for s, fates := range tr.fates {
			switch f := fates[i]; {
			case f.permanent || f.transient >= tr.ft.Retry.maxAttempts():
				dead[s]++
				continue items
			case f.skip:
				skipped[s]++
				continue items
			}
		}
		delivered++
	}
	return skipped, dead, delivered
}

// checkTrial runs one trial, checks it, and names its outcome.
func checkTrial(t *testing.T, seed int, tr trial) string {
	t.Helper()
	wantSkipped, wantDead, wantDelivered := tr.expect()
	var totalDead uint64
	for _, d := range wantDead {
		totalDead += d
	}
	wantClean := totalDead == 0 || (tr.ft.MaxDeadLetters > 0 && totalDead <= uint64(tr.ft.MaxDeadLetters))
	var stages []Stage[item]
	for s, w := range tr.workers {
		fates := tr.fates[s]
		stages = append(stages, Stage[item]{Name: "s" + strconv.Itoa(s), Workers: w,
			Fn: func(_ context.Context, it item) (item, error) {
				if fates[it.idx].skip {
					return it, ErrSkip
				}
				return it, nil
			}})
	}
	var mu sync.Mutex
	attempts := map[string][]int{} // stage/key → attempt numbers Inject saw
	ft := tr.ft
	ft.Inject = func(stage, key string, attempt int) error {
		mu.Lock()
		attempts[stage+"/"+key] = append(attempts[stage+"/"+key], attempt)
		mu.Unlock()
		s, _ := strconv.Atoi(stage[1:])
		i, _ := strconv.Atoi(key)
		switch f := tr.fates[s][i]; {
		case f.permanent:
			return &injected{stage, key, attempt}
		case attempt <= f.transient:
			return Transient(&injected{stage, key, attempt})
		}
		return nil
	}
	p := New[item]("conservation", stages...).WithKey(itemKey).WithSeed(uint64(seed)).WithFaultTolerance(ft)
	var delivered uint64
	err := p.Run(context.Background(),
		IndexedSource(tr.n, func(i int) item { return item{idx: i} }),
		func(item) error { delivered++; return nil })
	stats, dls := p.Stats(), p.DeadLetters()
	var skipped, dead uint64
	for _, st := range stats {
		skipped += st.Skipped
		dead += st.DeadLetters
	}
	if uint64(len(dls)) != dead {
		t.Fatalf("seed %d: %d dead letters queued, stage counters say %d", seed, len(dls), dead)
	}

	if (err == nil) != wantClean {
		t.Fatalf("seed %d: run returned %v; %d items should dead-letter under budget %d", seed, err, totalDead, tr.ft.MaxDeadLetters)
	}
	if err != nil {
		var ie *injected
		if !errors.As(err, &ie) {
			t.Fatalf("seed %d: run failed with %v, which wraps no injected fault", seed, err)
		}
		if ft.MaxDeadLetters == 0 {
			if dead != 0 || !strings.Contains(err.Error(), "stage "+ie.stage+": ") {
				t.Fatalf("seed %d: fail-fast run: %d dead letters, error %q", seed, dead, err)
			}
			return "fail fast"
		}
		// The budget broke: the error names the first dead letter and
		// wraps its error, and that item is in the queue.
		if len(dls) <= ft.MaxDeadLetters {
			t.Fatalf("seed %d: run failed with %v inside its budget of %d (%d dead letters)", seed, err, ft.MaxDeadLetters, len(dls))
		}
		want := fmt.Sprintf("dead-letter budget %d exceeded; first dead letter (stage %s, item %q)", ft.MaxDeadLetters, ie.stage, ie.key)
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("seed %d: error %q does not name the dead letter it wraps (%s)", seed, err, want)
		}
		for _, dl := range dls {
			if dl.Stage == ie.stage && dl.Key == ie.key {
				if !errors.Is(err, dl.Err) {
					t.Fatalf("seed %d: run error %q is not dead letter %+v's", seed, err, dl)
				}
				return "over budget"
			}
		}
		t.Fatalf("seed %d: run error names item %s in stage %s, which is not a dead letter", seed, ie.key, ie.stage)
	}

	if p.emitted.Load() != uint64(tr.n) {
		t.Fatalf("seed %d: emitted %d of %d items", seed, p.emitted.Load(), tr.n)
	}
	if got := delivered + skipped + dead; got != uint64(tr.n) {
		t.Fatalf("seed %d: delivered %d + skipped %d + dead-lettered %d = %d, emitted %d",
			seed, delivered, skipped, dead, got, tr.n)
	}
	if delivered != wantDelivered {
		t.Fatalf("seed %d: delivered %d items, want %d", seed, delivered, wantDelivered)
	}
	for s, st := range stats {
		if st.Skipped != wantSkipped[s] || st.DeadLetters != wantDead[s] {
			t.Fatalf("seed %d: stage %s skipped %d and dead-lettered %d, want %d and %d",
				seed, st.Name, st.Skipped, st.DeadLetters, wantSkipped[s], wantDead[s])
		}
		if st.In != st.Out+st.Skipped+st.DeadLetters+st.Errors {
			t.Fatalf("seed %d: stage %s in %d != out %d + skipped %d + dead %d + errors %d",
				seed, st.Name, st.In, st.Out, st.Skipped, st.DeadLetters, st.Errors)
		}
		var retries uint64
		for k, seen := range attempts {
			if !strings.HasPrefix(k, st.Name+"/") {
				continue
			}
			for a, got := range seen {
				if got != a+1 {
					t.Fatalf("seed %d: Inject saw attempts %v for %s, want 1, 2, …", seed, seen, k)
				}
			}
			retries += uint64(len(seen) - 1)
		}
		if st.Retries != retries {
			t.Fatalf("seed %d: stage %s counts %d retries, Inject saw %d repeated attempts", seed, st.Name, st.Retries, retries)
		}
	}
	return "clean"
}

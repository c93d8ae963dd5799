package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"bivoc/internal/asr"
	"bivoc/internal/pipeline"
)

// hashKey gives a stable, format-agnostic fingerprint of an item key so
// fault predicates hit a deterministic subset of calls/messages.
func hashKey(key string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// transientFirstAttempts injects a retryable fault into the first two
// attempts of roughly 1-in-mod items on the named stage.
func transientFirstAttempts(stage string, mod uint64) pipeline.FaultFn {
	return func(st, key string, attempt int) error {
		if st == stage && attempt <= 2 && hashKey(key)%mod == 0 {
			return pipeline.Transient(fmt.Errorf("injected flake on %s attempt %d", key, attempt))
		}
		return nil
	}
}

// permanentOn injects an unretryable fault into every attempt of
// roughly 1-in-mod items on the named stage.
func permanentOn(stage string, mod uint64) pipeline.FaultFn {
	return func(st, key string, attempt int) error {
		if st == stage && hashKey(key)%mod == 0 {
			return fmt.Errorf("injected permanent fault on %s", key)
		}
		return nil
	}
}

// testRetry is a fast retry policy for fault-injection tests.
func testRetry() pipeline.RetryPolicy {
	return pipeline.RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Microsecond, Jitter: 0.5}
}

// TestCallAnalysisTransientFaultsByteIdentical is the fault-injection
// acceptance criterion: transient faults retried to success must leave
// the full report surface byte-identical to a fault-free run, at any
// worker count — retries replay per-call RNG substreams, so a flake on
// one call cannot shift any other call's outcome.
func TestCallAnalysisTransientFaultsByteIdentical(t *testing.T) {
	base := DefaultCallAnalysisConfig()
	base.World = fastWorld()
	base.UseASR = false

	baseline, err := RunCallAnalysis(base)
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(baseline)

	for _, w := range []int{1, 4, 8} {
		cfg := base
		cfg.Workers = w
		cfg.FaultTolerance = pipeline.FaultTolerance{Retry: testRetry()}
		cfg.FaultTolerance.Inject = transientFirstAttempts("annotate", 5)
		ca, err := RunCallAnalysis(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if got := renderAll(ca); got != want {
			t.Fatalf("workers=%d: reports differ from the no-fault run:\n-- fault --\n%s\n-- none --\n%s", w, got, want)
		}
		if len(ca.DeadLetters) != 0 {
			t.Fatalf("workers=%d: %d dead letters from transient-only faults", w, len(ca.DeadLetters))
		}
		if ca.Index.Len() != len(ca.World.Calls) {
			t.Fatalf("workers=%d: indexed %d of %d calls", w, ca.Index.Len(), len(ca.World.Calls))
		}
		for i := range baseline.Transcripts {
			if strings.Join(baseline.Transcripts[i], " ") != strings.Join(ca.Transcripts[i], " ") {
				t.Fatalf("workers=%d: transcript %d differs under retry", w, i)
			}
		}
	}
}

// TestCallAnalysisTransientFaultsByteIdenticalASR repeats the check
// with the recognizer in the loop — the stage whose per-call noise
// substreams make retry replay non-trivial.
func TestCallAnalysisTransientFaultsByteIdenticalASR(t *testing.T) {
	if testing.Short() {
		t.Skip("ASR decoding is slow")
	}
	base := DefaultCallAnalysisConfig()
	base.World = fastWorld()
	base.World.CallsPerDay = 25
	base.World.Days = 1
	base.Channel = asr.TelephoneChannel
	base.Decoder.BeamWidth = 96

	baseline, err := RunCallAnalysis(base)
	if err != nil {
		t.Fatal(err)
	}
	want := renderAll(baseline)

	for _, w := range []int{1, 4} {
		cfg := base
		cfg.Workers = w
		cfg.FaultTolerance = pipeline.FaultTolerance{Retry: testRetry()}
		cfg.FaultTolerance.Inject = transientFirstAttempts("transcribe", 4)
		ca, err := RunCallAnalysis(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if got := renderAll(ca); got != want {
			t.Fatalf("workers=%d: ASR reports differ from the no-fault run", w)
		}
		for i := range baseline.Transcripts {
			if strings.Join(baseline.Transcripts[i], " ") != strings.Join(ca.Transcripts[i], " ") {
				t.Fatalf("workers=%d: retried decode of call %d is not a replay", w, i)
			}
		}
	}
}

// TestCallAnalysisPermanentFaultsDeadLetter: permanent faults drop the
// affected calls into the dead-letter queue; the run completes and the
// sealed index accounts for exactly the survivors.
func TestCallAnalysisPermanentFaultsDeadLetter(t *testing.T) {
	cfg := DefaultCallAnalysisConfig()
	cfg.World = fastWorld()
	cfg.UseASR = false
	cfg.Workers = 4
	cfg.FaultTolerance = pipeline.FaultTolerance{Retry: testRetry(), MaxDeadLetters: 200}
	cfg.FaultTolerance.Inject = permanentOn("annotate", 7)

	ca, err := RunCallAnalysis(cfg)
	if err != nil {
		t.Fatalf("run with dead-letter budget failed: %v", err)
	}
	if len(ca.DeadLetters) == 0 {
		t.Fatal("no dead letters despite injected permanent faults")
	}
	if got, want := ca.Index.Len(), len(ca.World.Calls)-len(ca.DeadLetters); got != want {
		t.Fatalf("index holds %d docs, want %d (calls minus dead letters)", got, want)
	}
	deadIDs := map[string]bool{}
	for _, dl := range ca.DeadLetters {
		if dl.Stage != "annotate" || dl.Attempts != 1 {
			t.Fatalf("dead letter %+v: want stage annotate, 1 attempt (permanent errors burn no retries)", dl)
		}
		deadIDs[dl.Key] = true
	}
	for i, call := range ca.World.Calls {
		if deadIDs[call.ID] != (ca.Transcripts[i] == nil) {
			t.Fatalf("call %s: dead=%v but transcript nil=%v", call.ID, deadIDs[call.ID], ca.Transcripts[i] == nil)
		}
	}
}

// TestCallAnalysisDeadLetterBudgetExceeded: past the budget the run
// fails fast, carrying the first dead-letter error.
func TestCallAnalysisDeadLetterBudgetExceeded(t *testing.T) {
	cfg := DefaultCallAnalysisConfig()
	cfg.World = fastWorld()
	cfg.UseASR = false
	cfg.Workers = 4
	cfg.FaultTolerance = pipeline.FaultTolerance{MaxDeadLetters: 3}
	cfg.FaultTolerance.Inject = permanentOn("annotate", 7)

	_, err := RunCallAnalysis(cfg)
	if err == nil {
		t.Fatal("run past the dead-letter budget reported success")
	}
	if !strings.Contains(err.Error(), "dead-letter budget 3 exceeded") {
		t.Fatalf("error %q does not name the budget", err)
	}
	if !strings.Contains(err.Error(), "injected permanent fault") {
		t.Fatalf("error %q does not carry the first dead-letter cause", err)
	}
}

// TestChurnExperimentDeadLettersAccounted: the §VI experiment must
// degrade gracefully — messages that exhaust retries are counted in
// the result stats, every other number still adds up, and the
// experiment completes.
func TestChurnExperimentDeadLettersAccounted(t *testing.T) {
	base := DefaultChurnExperimentConfig()
	base.World.NumCustomers = 300
	base.World.Emails = 700
	base.World.SMS = 0

	baseline, err := RunChurnExperiment(base)
	if err != nil {
		t.Fatal(err)
	}
	if baseline.DeadLettered != 0 {
		t.Fatalf("fault-free run reported %d dead letters", baseline.DeadLettered)
	}

	cfg := base
	cfg.Workers = 4
	cfg.FaultTolerance = pipeline.FaultTolerance{Retry: testRetry(), MaxDeadLetters: 700}
	cfg.FaultTolerance.Inject = permanentOn("clean", 9)
	res, err := RunChurnExperiment(cfg)
	if err != nil {
		t.Fatalf("churn run with dead-letter budget crashed: %v", err)
	}
	if res.DeadLettered == 0 {
		t.Fatal("no messages dead-lettered despite injected permanent faults")
	}
	if got := res.Spam + res.NonEnglish + res.Empty + res.Linked + res.Unlinkable + res.DeadLettered; got != res.Messages {
		t.Fatalf("accounting identity broken: %d classified of %d messages", got, res.Messages)
	}
	// Graceful degradation: the survivors still train and evaluate a
	// classifier — the experiment reports over less data, not nothing.
	if res.Linked == 0 || len(res.TopFeatures) == 0 {
		t.Fatalf("degraded run produced no usable experiment: %+v", res)
	}
	if res.TP+res.FP+res.TN+res.FN == 0 {
		t.Fatal("degraded run evaluated no messages")
	}

	// Transient-only faults must not change a single reported number.
	cfg2 := base
	cfg2.Workers = 4
	cfg2.FaultTolerance = pipeline.FaultTolerance{Retry: testRetry()}
	cfg2.FaultTolerance.Inject = transientFirstAttempts("link", 6)
	res2, err := RunChurnExperiment(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	a, b := *baseline, *res2
	if strings.Join(a.TopFeatures, ",") != strings.Join(b.TopFeatures, ",") {
		t.Fatal("top features differ under retried transient faults")
	}
	a.TopFeatures, b.TopFeatures = nil, nil
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatalf("results differ under retried transient faults:\n%+v\n%+v", a, b)
	}
}

// TestChurnExperimentBudgetExceeded: too many dead letters fail the
// experiment rather than publish numbers over a gutted corpus.
func TestChurnExperimentBudgetExceeded(t *testing.T) {
	cfg := DefaultChurnExperimentConfig()
	cfg.World.NumCustomers = 200
	cfg.World.Emails = 400
	cfg.World.SMS = 0
	cfg.Workers = 4
	cfg.FaultTolerance = pipeline.FaultTolerance{MaxDeadLetters: 2}
	cfg.FaultTolerance.Inject = permanentOn("clean", 5)

	_, err := RunChurnExperiment(cfg)
	if err == nil {
		t.Fatal("budget-exceeding churn run reported success")
	}
	if !strings.Contains(err.Error(), "dead-letter budget") {
		t.Fatalf("error %q does not name the dead-letter budget", err)
	}
	if !strings.Contains(err.Error(), "injected permanent fault") {
		t.Fatalf("error %q does not carry the first dead-letter cause", err)
	}
}

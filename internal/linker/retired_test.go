package linker

// Nothing shipped reaches what this file declares (the root package's
// TestEveryInternalFunctionIsReachable). It left em.go
// in PR 24 and stays, as test code only, because the tests below pin it
// and a PR may retire only a few tests of the floor. It is a reference
// for nothing: delete each declaration with its tests.

import "testing"

// Precision returns Correct / Linked.
func (r EvalResult) Precision() float64 {
	if r.Linked == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.Linked)
}

// Recall returns Correct / Docs.
func (r EvalResult) Recall() float64 {
	if r.Docs == 0 {
		return 0
	}
	return float64(r.Correct) / float64(r.Docs)
}

// RecallAtK returns CorrectIn / Docs.
func (r EvalResult) RecallAtK() float64 {
	if r.Docs == 0 {
		return 0
	}
	return float64(r.CorrectIn) / float64(r.Docs)
}

// UnlinkableRate returns Unlinkable / Docs.
func (r EvalResult) UnlinkableRate() float64 {
	if r.Docs == 0 {
		return 0
	}
	return float64(r.Unlinkable) / float64(r.Docs)
}

func TestEvalResultEmpty(t *testing.T) {
	var r EvalResult
	if r.Precision() != 0 || r.Recall() != 0 || r.RecallAtK() != 0 || r.UnlinkableRate() != 0 {
		t.Error("empty result should be zeros")
	}
}

package asr

// Nothing shipped reaches what this file declares (the root package's
// TestEveryInternalFunctionIsReachable). It left spotter.go
// in PR 24 and stays, as test code only, because the tests below pin it
// and a PR may retire only a few tests of the floor. It is a reference
// for nothing: delete each declaration with its tests.

import (
	"math"
	"testing"
)

// LogOddsScore converts a confidence to the LVCSR-style log-likelihood
// ratio the keyword-spotting literature reports (Weintraub 1995): the
// log odds of the keyword match against a uniform-phone background.
func LogOddsScore(confidence float64) float64 {
	c := confidence
	if c <= 0 {
		c = 1e-9
	}
	if c >= 1 {
		c = 1 - 1e-9
	}
	return math.Log(c / (1 - c))
}

func TestLogOddsScore(t *testing.T) {
	if LogOddsScore(0.5) != 0 {
		t.Errorf("log odds at 0.5 = %v", LogOddsScore(0.5))
	}
	if LogOddsScore(0.9) <= 0 || LogOddsScore(0.1) >= 0 {
		t.Error("log odds signs wrong")
	}
	if math.IsInf(LogOddsScore(0), 0) || math.IsInf(LogOddsScore(1), 0) {
		t.Error("log odds should clamp at boundaries")
	}
}

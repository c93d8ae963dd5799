package stats

// Nothing shipped reaches what this file declares (the root package's
// TestEveryInternalFunctionIsReachable). It left stats.go
// in PR 24 and stays, as test code only, because the tests below pin it
// and a PR may retire only a few tests of the floor. It is a reference
// for nothing: delete each declaration with its tests.

import (
	"math"
	"sort"
	"testing"
)

// Median returns the median of xs, or 0 for an empty slice. xs is not
// modified.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if q <= 0 {
		return c[0]
	}
	if q >= 1 {
		return c[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return c[n-1]
	}
	return c[lo]*(1-frac) + c[lo+1]*frac
}

// ProportionInterval returns the normal-approximation (Wald) interval for
// a binomial proportion, clamped to [0, 1]. The association analysis uses
// Wilson by default; Wald is kept for the ablation benchmark.
func ProportionInterval(successes, n int, confidence float64) Interval {
	if n <= 0 {
		return Interval{0, 1}
	}
	z := NormalQuantile(1 - (1-confidence)/2)
	p := float64(successes) / float64(n)
	half := z * math.Sqrt(p*(1-p)/float64(n))
	lo, hi := p-half, p+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return Interval{lo, hi}
}

// BinomialPMF returns P(X = k) for X ~ Binomial(n, p), computed in log
// space for numerical stability.
func BinomialPMF(k, n int, p float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	lg := lgamma(float64(n+1)) - lgamma(float64(k+1)) - lgamma(float64(n-k+1))
	return math.Exp(lg + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p))
}

// ChiSquare2x2 returns the chi-square statistic (with Yates continuity
// correction) for a 2x2 contingency table [[a b] [c d]].
func ChiSquare2x2(a, b, c, d int) float64 {
	n := float64(a + b + c + d)
	if n == 0 {
		return 0
	}
	af, bf, cf, df := float64(a), float64(b), float64(c), float64(d)
	num := math.Abs(af*df-bf*cf) - n/2
	if num < 0 {
		num = 0
	}
	denom := (af + bf) * (cf + df) * (af + cf) * (bf + df)
	if denom == 0 {
		return 0
	}
	return n * num * num / denom
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Errorf("q0.5 = %v", got)
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Errorf("q0.25 = %v", got)
	}
}

func TestProportionIntervalClamped(t *testing.T) {
	iv := ProportionInterval(0, 10, 0.95)
	if iv.Lo != 0 {
		t.Errorf("Wald lo should clamp to 0, got %v", iv.Lo)
	}
	iv = ProportionInterval(10, 10, 0.95)
	if iv.Hi != 1 {
		t.Errorf("Wald hi should clamp to 1, got %v", iv.Hi)
	}
}

func TestBinomialPMF(t *testing.T) {
	// Binomial(4, 0.5): P(X=2) = 6/16.
	if got := BinomialPMF(2, 4, 0.5); !almostEq(got, 0.375, 1e-12) {
		t.Errorf("PMF = %v, want 0.375", got)
	}
	sum := 0.0
	for k := 0; k <= 20; k++ {
		sum += BinomialPMF(k, 20, 0.3)
	}
	if !almostEq(sum, 1, 1e-10) {
		t.Errorf("PMF should sum to 1, got %v", sum)
	}
	if BinomialPMF(-1, 5, 0.5) != 0 || BinomialPMF(6, 5, 0.5) != 0 {
		t.Error("out-of-range PMF should be 0")
	}
	if BinomialPMF(0, 5, 0) != 1 || BinomialPMF(5, 5, 1) != 1 {
		t.Error("degenerate p PMF wrong")
	}
}

func TestChiSquare2x2(t *testing.T) {
	// Independent table should give ~0.
	if got := ChiSquare2x2(10, 10, 10, 10); got != 0 {
		t.Errorf("independent chi2 = %v", got)
	}
	// Strongly associated table should give a large statistic.
	if got := ChiSquare2x2(50, 5, 5, 50); got < 50 {
		t.Errorf("associated chi2 = %v, want large", got)
	}
	if ChiSquare2x2(0, 0, 0, 0) != 0 {
		t.Error("empty table chi2 should be 0")
	}
}

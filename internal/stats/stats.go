// Package stats implements the statistical machinery BIVoC relies on:
// descriptive statistics, the Student-t and normal distributions, Welch's
// two-sample t-test (used in §V.C to validate the agent-training uplift),
// and binomial-proportion confidence intervals (used by the 2-D
// association analysis of §IV.D.2, which replaces a point estimate of the
// exponential mutual information with the lower end of an interval
// estimate to stay robust at small counts).
//
// Everything is implemented from scratch on top of math; the special
// functions (log-gamma, regularized incomplete beta) use standard
// Lanczos / continued-fraction evaluations accurate to ~1e-10, far beyond
// what the analyses need.
package stats

import (
	"errors"
	"math"
)

// ErrInsufficientData is returned by tests and estimators that need more
// observations than were supplied.
var ErrInsufficientData = errors.New("stats: insufficient data")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (denominator n-1),
// or 0 when fewer than two observations are supplied.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// lgamma returns the natural log of the absolute value of the gamma
// function, via the Lanczos approximation (g=7, n=9 coefficients).
func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// betacf evaluates the continued fraction for the incomplete beta
// function by the modified Lentz method.
func betacf(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// RegIncBeta returns the regularized incomplete beta function I_x(a, b).
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	ln := lgamma(a+b) - lgamma(a) - lgamma(b) + a*math.Log(x) + b*math.Log(1-x)
	front := math.Exp(ln)
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

// StudentTCDF returns P(T <= t) for a Student-t variable with df degrees
// of freedom.
func StudentTCDF(t, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	x := df / (df + t*t)
	p := 0.5 * RegIncBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// NormalCDF returns the standard normal CDF at z.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NormalQuantile returns the z such that NormalCDF(z) = p, via the
// Acklam rational approximation refined with one Halley step. Valid for
// 0 < p < 1; returns ±Inf at the boundaries.
func NormalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Acklam coefficients.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const pLow, pHigh = 0.02425, 1 - 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// TTestResult reports a two-sample Welch t-test.
type TTestResult struct {
	T  float64 // test statistic
	DF float64 // Welch-Satterthwaite degrees of freedom
	P  float64 // two-sided p-value
	// POneSided is the one-sided p-value for mean(a) > mean(b); the §V.C
	// uplift analysis is directional (trained agents improved).
	POneSided float64
	MeanA     float64
	MeanB     float64
}

// WelchTTest performs a two-sample t-test without assuming equal
// variances. It needs at least two observations per sample.
func WelchTTest(a, b []float64) (TTestResult, error) {
	if len(a) < 2 || len(b) < 2 {
		return TTestResult{}, ErrInsufficientData
	}
	ma, mb := Mean(a), Mean(b)
	va, vb := Variance(a), Variance(b)
	na, nb := float64(len(a)), float64(len(b))
	sa, sb := va/na, vb/nb
	se := math.Sqrt(sa + sb)
	if se == 0 {
		return TTestResult{}, errors.New("stats: zero variance in both samples")
	}
	t := (ma - mb) / se
	df := (sa + sb) * (sa + sb) / (sa*sa/(na-1) + sb*sb/(nb-1))
	upper := 1 - StudentTCDF(math.Abs(t), df)
	res := TTestResult{
		T: t, DF: df,
		P:         2 * upper,
		POneSided: 1 - StudentTCDF(t, df),
		MeanA:     ma, MeanB: mb,
	}
	return res, nil
}

// Interval is a two-sided confidence interval.
type Interval struct {
	Lo, Hi float64
}

// WilsonInterval returns the Wilson score interval for a binomial
// proportion with successes out of n trials at the given confidence
// level (e.g. 0.95).
func WilsonInterval(successes, n int, confidence float64) Interval {
	return WilsonIntervalZ(successes, n, WilsonZ(confidence))
}

// WilsonZ returns the two-sided normal critical value the Wilson
// interval uses at the given confidence level. Hot paths that evaluate
// many intervals at one confidence (the association cell grid) compute
// it once and call WilsonIntervalZ; the results are bit-identical to
// WilsonInterval because this is the exact expression it evaluates.
func WilsonZ(confidence float64) float64 {
	return NormalQuantile(1 - (1-confidence)/2)
}

// WilsonIntervalZ is WilsonInterval with the critical value z already
// computed (see WilsonZ).
func WilsonIntervalZ(successes, n int, z float64) Interval {
	if n <= 0 {
		return Interval{0, 1}
	}
	nf := float64(n)
	p := float64(successes) / nf
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)) / denom
	lo := center - half
	hi := center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return Interval{lo, hi}
}

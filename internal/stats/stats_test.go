package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVarianceKnown(t *testing.T) {
	// Sample variance of {2,4,4,4,5,5,7,9} with n-1 denominator is 32/7.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got, want := Variance(xs), 32.0/7.0; !almostEq(got, want, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, want)
	}
}

func TestVarianceDegenerate(t *testing.T) {
	if Variance(nil) != 0 || Variance([]float64{3}) != 0 {
		t.Error("variance of <2 observations should be 0")
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{1, 0.8413447460685429},
	}
	for _, c := range cases {
		if got := NormalCDF(c.z); !almostEq(got, c.want, 1e-9) {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.z, got, c.want)
		}
	}
}

func TestNormalQuantileInvertsCDF(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.05, 0.3, 0.5, 0.7, 0.95, 0.99, 0.999} {
		z := NormalQuantile(p)
		if got := NormalCDF(z); !almostEq(got, p, 1e-9) {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Error("boundary quantiles should be infinite")
	}
}

func TestStudentTCDFKnownValues(t *testing.T) {
	// With df → large, t CDF approaches normal CDF.
	if got, want := StudentTCDF(1.96, 1e7), NormalCDF(1.96); !almostEq(got, want, 1e-5) {
		t.Errorf("large-df t CDF = %v, want ~%v", got, want)
	}
	// Symmetry around 0.
	if got := StudentTCDF(0, 5); !almostEq(got, 0.5, 1e-12) {
		t.Errorf("t CDF at 0 = %v", got)
	}
	// Known value: t=2.015, df=5 → 0.95 (95th percentile of t_5).
	if got := StudentTCDF(2.015048372669157, 5); !almostEq(got, 0.95, 1e-6) {
		t.Errorf("t_5 CDF at 2.015 = %v, want 0.95", got)
	}
}

func TestStudentTCDFSymmetryProperty(t *testing.T) {
	f := func(tv float64, dfRaw uint8) bool {
		if math.IsNaN(tv) || math.IsInf(tv, 0) {
			return true
		}
		tv = math.Mod(tv, 50)
		df := float64(dfRaw%60) + 1
		lhs := StudentTCDF(tv, df)
		rhs := 1 - StudentTCDF(-tv, df)
		return almostEq(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegIncBetaBounds(t *testing.T) {
	if RegIncBeta(2, 3, 0) != 0 || RegIncBeta(2, 3, 1) != 1 {
		t.Error("incomplete beta boundary values wrong")
	}
	// I_x(1,1) = x (uniform distribution CDF).
	for _, x := range []float64{0.1, 0.35, 0.8} {
		if got := RegIncBeta(1, 1, x); !almostEq(got, x, 1e-10) {
			t.Errorf("I_%v(1,1) = %v", x, got)
		}
	}
}

func TestRegIncBetaMonotoneProperty(t *testing.T) {
	f := func(aRaw, bRaw uint8, x1, x2 float64) bool {
		a := float64(aRaw%20)/2 + 0.5
		b := float64(bRaw%20)/2 + 0.5
		x1 = math.Abs(math.Mod(x1, 1))
		x2 = math.Abs(math.Mod(x2, 1))
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		return RegIncBeta(a, b, x1) <= RegIncBeta(a, b, x2)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWelchTTestKnown(t *testing.T) {
	// Classic example: two small samples with a clear difference.
	a := []float64{27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1, 19.6, 19.0, 21.7, 21.4}
	b := []float64{27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2, 21.9, 22.1, 22.9, 30.5, 31.2}
	res, err := WelchTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Reference values computed independently (Welch formulas + incomplete
	// beta, cross-checked in Python): t = -2.95132, df = 27.3501, p = 0.0064222.
	if !almostEq(res.T, -2.951324905801334, 1e-9) {
		t.Errorf("T = %v, want -2.95132", res.T)
	}
	if !almostEq(res.DF, 27.350115524702318, 1e-9) {
		t.Errorf("DF = %v, want 27.3501", res.DF)
	}
	if !almostEq(res.P, 0.006422150965117668, 1e-9) {
		t.Errorf("P = %v, want 0.0064222", res.P)
	}
	// t < 0 here, so the directional test for mean(a) > mean(b) should be
	// the complement of half the two-sided p.
	if !almostEq(res.POneSided, 1-res.P/2, 1e-9) {
		t.Errorf("one-sided p = %v, want %v", res.POneSided, 1-res.P/2)
	}
}

func TestWelchTTestErrors(t *testing.T) {
	if _, err := WelchTTest([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("expected error for tiny sample")
	}
	if _, err := WelchTTest([]float64{2, 2}, []float64{2, 2}); err == nil {
		t.Error("expected error for zero variance")
	}
}

func TestWelchTTestSymmetric(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 4, 6, 8, 12}
	r1, err1 := WelchTTest(a, b)
	r2, err2 := WelchTTest(b, a)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !almostEq(r1.T, -r2.T, 1e-12) || !almostEq(r1.P, r2.P, 1e-12) {
		t.Error("Welch t-test should be antisymmetric in its arguments")
	}
}

func TestWilsonIntervalProperties(t *testing.T) {
	f := func(s, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		k := int(s) % (n + 1)
		iv := WilsonInterval(k, n, 0.95)
		p := float64(k) / float64(n)
		return iv.Lo >= 0 && iv.Hi <= 1 && iv.Lo <= p+1e-12 && iv.Hi >= p-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWilsonIntervalKnown(t *testing.T) {
	// 8 successes in 10 trials at 95%: Wilson interval ≈ (0.4901, 0.9433).
	iv := WilsonInterval(8, 10, 0.95)
	if !almostEq(iv.Lo, 0.4901625, 1e-4) || !almostEq(iv.Hi, 0.9433178, 1e-4) {
		t.Errorf("Wilson(8,10) = %+v", iv)
	}
	iv0 := WilsonInterval(0, 0, 0.95)
	if iv0.Lo != 0 || iv0.Hi != 1 {
		t.Errorf("empty Wilson should be [0,1], got %+v", iv0)
	}
}

func TestWilsonNarrowerWithMoreData(t *testing.T) {
	small := WilsonInterval(6, 10, 0.95)
	big := WilsonInterval(600, 1000, 0.95)
	if big.Hi-big.Lo >= small.Hi-small.Lo {
		t.Error("interval should narrow as n grows at fixed proportion")
	}
}

package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d collisions between different seeds", same)
	}
}

func TestSplitStable(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(99)
	c2 := parent.Split(99)
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("same split label should give identical streams")
		}
	}
	d := parent.Split(100)
	if c2.Uint64() == d.Uint64() && c2.Uint64() == d.Uint64() {
		t.Error("different split labels should diverge")
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	p1, p2 := New(5), New(5)
	p1.Split(1)
	p1.SplitString("x")
	if p1.Uint64() != p2.Uint64() {
		t.Error("Split must not advance parent state")
	}
}

func TestSplitStringStable(t *testing.T) {
	p := New(3)
	a := p.SplitString("customer-17")
	b := p.SplitString("customer-17")
	c := p.SplitString("customer-18")
	av, bv, cv := a.Uint64(), b.Uint64(), c.Uint64()
	if av != bv {
		t.Error("same string label should match")
	}
	if av == cv {
		t.Error("different string labels should differ")
	}
}

func TestIntnBounds(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnCoversRange(t *testing.T) {
	r := New(11)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		seen[r.Intn(7)] = true
	}
	for v := 0; v < 7; v++ {
		if !seen[v] {
			t.Errorf("value %d never drawn", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(13)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64MeanRoughlyHalf(t *testing.T) {
	r := New(17)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if m := sum / n; math.Abs(m-0.5) > 0.01 {
		t.Errorf("uniform mean = %v, want ~0.5", m)
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(19)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) should never be true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) should always be true")
		}
	}
}

func TestBoolRate(t *testing.T) {
	r := New(23)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if rate := float64(hits) / n; math.Abs(rate-0.3) > 0.01 {
		t.Errorf("Bool(0.3) rate = %v", rate)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(29)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v", variance)
	}
}

func TestGaussianShift(t *testing.T) {
	r := New(31)
	const n = 50000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Gaussian(10, 2)
	}
	if m := sum / n; math.Abs(m-10) > 0.05 {
		t.Errorf("Gaussian(10,2) mean = %v", m)
	}
}

func TestPick(t *testing.T) {
	r := New(43)
	choices := []string{"a", "b", "c"}
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		seen[Pick(r, choices)] = true
	}
	if len(seen) != 3 {
		t.Errorf("Pick did not cover all choices: %v", seen)
	}
}

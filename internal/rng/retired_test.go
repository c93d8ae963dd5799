package rng

// Nothing shipped reaches what this file declares (the root package's
// TestEveryInternalFunctionIsReachable). It left rng.go
// in PR 24 and stays, as test code only, because the tests below pin it
// and a PR may retire only a few tests of the floor. It is a reference
// for nothing: delete each declaration with its tests.

import (
	"math"
	"testing"
	"testing/quick"
)

// Fork returns n independent child generators. Child i is exactly
// r.Split(uint64(i)), so forks are stable: the same parent forks the
// same children every run, and Fork does not advance the parent. This is
// the substream primitive the streaming pipeline relies on — give every
// document (or shard) its own fork and results stop depending on which
// worker processed which item.
func (r *RNG) Fork(n int) []*RNG {
	out := make([]*RNG, n)
	for i := range out {
		out[i] = r.Split(uint64(i))
	}
	return out
}

// Poisson returns a Poisson variate with the given mean (Knuth for small
// means, normal approximation above 30 to stay O(1)).
func (r *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := int(math.Round(r.Gaussian(mean, math.Sqrt(mean))))
		if v < 0 {
			v = 0
		}
		return v
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles s in place (Fisher-Yates).
func (r *RNG) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Shuffle shuffles n elements using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Weighted returns an index in [0, len(weights)) with probability
// proportional to the weight. Non-positive weights are treated as zero;
// if all weights are zero it falls back to uniform.
func (r *RNG) Weighted(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return r.Intn(len(weights))
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

func TestForkStableAndMatchesSplit(t *testing.T) {
	p1, p2 := New(7), New(7)
	kids := p1.Fork(8)
	again := p2.Fork(8)
	for i := range kids {
		for d := 0; d < 50; d++ {
			if kids[i].Uint64() != again[i].Uint64() {
				t.Fatalf("fork child %d not reproducible at draw %d", i, d)
			}
		}
	}
	// Fork child i is defined as Split(i) — document the contract.
	c := New(7).Fork(3)[2]
	s := New(7).Split(2)
	for d := 0; d < 50; d++ {
		if c.Uint64() != s.Uint64() {
			t.Fatal("Fork(n)[i] must equal Split(i)")
		}
	}
}

func TestForkDoesNotAdvanceParent(t *testing.T) {
	p1, p2 := New(11), New(11)
	p1.Fork(16)
	if p1.Uint64() != p2.Uint64() {
		t.Error("Fork must not advance parent state")
	}
}

// TestForkStreamIndependence checks the worker-count-invariance
// prerequisite statistically: sibling substreams must be uncorrelated
// and collision-free, so per-document forks behave as independent
// generators no matter which worker consumes them.
func TestForkStreamIndependence(t *testing.T) {
	const kids, draws = 10, 20000
	streams := New(101).Fork(kids)
	samples := make([][]float64, kids)
	for i, s := range streams {
		samples[i] = make([]float64, draws)
		for d := range samples[i] {
			samples[i][d] = s.Float64()
		}
	}
	for i := 0; i < kids; i++ {
		// Each stream individually uniform.
		mean := 0.0
		for _, v := range samples[i] {
			mean += v
		}
		mean /= draws
		if math.Abs(mean-0.5) > 0.02 {
			t.Errorf("fork %d mean %v, want ~0.5", i, mean)
		}
		// Pairwise Pearson correlation near zero.
		for j := i + 1; j < kids; j++ {
			var sx, sy, sxx, syy, sxy float64
			for d := 0; d < draws; d++ {
				x, y := samples[i][d], samples[j][d]
				sx += x
				sy += y
				sxx += x * x
				syy += y * y
				sxy += x * y
			}
			n := float64(draws)
			cov := sxy/n - (sx/n)*(sy/n)
			vx := sxx/n - (sx/n)*(sx/n)
			vy := syy/n - (sy/n)*(sy/n)
			if r := cov / math.Sqrt(vx*vy); math.Abs(r) > 0.03 {
				t.Errorf("forks %d and %d correlate: r=%v", i, j, r)
			}
		}
	}
	// No cross-stream collisions in raw 64-bit output.
	seen := make(map[uint64][2]int)
	for i, s := range New(101).Fork(kids) {
		for d := 0; d < 1000; d++ {
			v := s.Uint64()
			if prev, ok := seen[v]; ok {
				t.Fatalf("streams %v and [%d %d] drew identical value %x", prev, i, d, v)
			}
			seen[v] = [2]int{i, d}
		}
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(37)
	for _, mean := range []float64{0.5, 3, 12, 50} {
		const n = 20000
		sum := 0
		for i := 0; i < n; i++ {
			sum += r.Poisson(mean)
		}
		got := float64(sum) / n
		if math.Abs(got-mean) > mean*0.05+0.05 {
			t.Errorf("Poisson(%v) sample mean = %v", mean, got)
		}
	}
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Error("non-positive mean should give 0")
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw % 50)
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWeighted(t *testing.T) {
	r := New(41)
	counts := [3]int{}
	const n = 60000
	for i := 0; i < n; i++ {
		counts[r.Weighted([]float64{1, 2, 1})]++
	}
	if math.Abs(float64(counts[1])/n-0.5) > 0.02 {
		t.Errorf("weighted middle rate = %v", float64(counts[1])/n)
	}
	// All-zero weights fall back to uniform and never panic.
	idx := r.Weighted([]float64{0, 0})
	if idx != 0 && idx != 1 {
		t.Errorf("zero-weight index = %d", idx)
	}
	// Negative weights are treated as zero.
	for i := 0; i < 100; i++ {
		if got := r.Weighted([]float64{-5, 1}); got != 1 {
			t.Fatalf("negative weight drawn: %d", got)
		}
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	r := New(47)
	s := []int{1, 2, 3, 4, 5, 6}
	sum := 0
	r.ShuffleInts(s)
	for _, v := range s {
		sum += v
	}
	if sum != 21 {
		t.Errorf("shuffle lost elements: %v", s)
	}
}

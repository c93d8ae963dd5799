// Package rng provides a deterministic, splittable pseudo-random number
// generator used by every stochastic component in BIVoC.
//
// All experiment randomness flows from explicit seeds through this package,
// which makes every table and figure in EXPERIMENTS.md bit-reproducible.
// The generator is a 64-bit PCG variant (permuted congruential generator)
// with an odd stream increment, so independent streams can be split off a
// parent without correlation — each synthetic customer, call, and channel
// realization gets its own stream derived from stable identifiers.
package rng

import (
	"math"
	"math/bits"
)

// RNG is a PCG-XSH-RR 64/32-style generator extended to emit 64-bit
// outputs by combining two sequential 32-bit draws. The zero value is not
// valid; use New or Split.
type RNG struct {
	state uint64
	inc   uint64 // must be odd
}

const pcgMultiplier = 6364136223846793005

// New returns a generator seeded from seed on the default stream.
func New(seed uint64) *RNG {
	return NewStream(seed, 0xda3e39cb94b95bdb)
}

// NewStream returns a generator seeded from seed on the given stream.
// Distinct streams yield statistically independent sequences.
func NewStream(seed, stream uint64) *RNG {
	r := &RNG{inc: stream<<1 | 1}
	r.state = r.inc + seed
	r.next32()
	return r
}

// Split derives an independent child generator from a label. The parent's
// state is not advanced, so the same label always yields the same child —
// this is what makes per-object streams stable across runs.
func (r *RNG) Split(label uint64) *RNG {
	// Mix the parent identity with the label through a 64-bit finalizer.
	h := r.inc ^ (label * 0x9E3779B97F4A7C15)
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	h *= 0xC4CEB9FE1A85EC53
	h ^= h >> 33
	return NewStream(r.state^h, h|1)
}

// SplitString derives an independent child generator from a string label.
func (r *RNG) SplitString(label string) *RNG {
	// FNV-1a over the label.
	var h uint64 = 14695981039346656037
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return r.Split(h)
}

func (r *RNG) next32() uint32 {
	old := r.state
	r.state = old*pcgMultiplier + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return xorshifted>>rot | xorshifted<<((-rot)&31)
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	return uint64(r.next32())<<32 | uint64(r.next32())
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), bound)
	if lo < bound {
		thresh := -bound % bound
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), bound)
		}
	}
	return int(hi)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Gaussian returns a normal variate with the given mean and stddev.
func (r *RNG) Gaussian(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	return -math.Log(1 - r.Float64())
}

// Pick returns a uniformly chosen element of choices. It panics on an
// empty slice, mirroring Intn.
func Pick[T any](r *RNG, choices []T) T {
	return choices[r.Intn(len(choices))]
}

// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the simulator.
//
// The simulator must be exactly reproducible across runs and Go releases, so
// it cannot depend on math/rand's unspecified sequence evolution. PCG32
// (O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically Good
// Algorithms for Random Number Generation") is used: a 64-bit LCG state with
// an output permutation, no global state, value-sized and cheap to fork.
package rng

import (
	"math"
	"math/bits"
	"sort"
)

// RNG is a PCG32 generator. The zero value is not valid; use NewStream.
type RNG struct {
	state uint64
	inc   uint64 // stream selector; must be odd
}

const (
	pcgMultiplier = 6364136223846793005
	pcgIncrement  = 1442695040888963407
	// pcgMultiplier2 is pcgMultiplier² mod 2^64: two LCG steps fused,
	// s·M² + inc·(M+1) = (s·M + inc)·M + inc, exact in uint64 arithmetic.
	pcgMultiplier2 = pcgMultiplier * pcgMultiplier % (1 << 64)
)

// NewStream returns a generator seeded from seed on the given stream.
// Generators with the same seed but different streams produce independent
// sequences.
func NewStream(seed, stream uint64) *RNG {
	r := &RNG{}
	r.Seed(seed, stream)
	return r
}

// Seed resets the generator to a deterministic function of seed and stream.
func (r *RNG) Seed(seed, stream uint64) {
	r.inc = (stream<<1 + pcgIncrement) | 1
	r.state = 0
	r.Uint32()
	r.state += seed
	r.Uint32()
}

// output is PCG32's output permutation of the state a step starts from.
func output(s uint64) uint32 {
	return bits.RotateLeft32(uint32(((s>>18)^s)>>27), -int(s>>59))
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *RNG) Uint32() uint32 {
	old := r.state
	r.state = old*pcgMultiplier + r.inc
	return output(old)
}

// Uint64 returns the next 64 uniformly distributed bits: two Uint32 draws.
// The state advances both steps in one fused multiply-add, so the update
// does not wait on the first step, and the whole function stays inlinable
// (the simulator kernel draws in hot per-instruction loops).
func (r *RNG) Uint64() uint64 {
	s := r.state
	r.state = s*pcgMultiplier2 + r.inc*(pcgMultiplier+1)
	return uint64(output(s))<<32 | uint64(output(s*pcgMultiplier+r.inc))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.boundedUint32(uint32(n)))
}

// boundedUint32 returns a uniform value in [0, bound) using Lemire's
// multiply-shift rejection method.
func (r *RNG) boundedUint32(bound uint32) uint32 {
	for {
		v := r.Uint32()
		m := uint64(v) * uint64(bound)
		lo := uint32(m)
		if lo >= bound {
			return uint32(m >> 32)
		}
		// Rejection zone: recompute the threshold once and retry until
		// outside it.
		threshold := -bound % bound
		if lo >= threshold {
			return uint32(m >> 32)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p: exactly Float64() < p, with no
// draw for p <= 0 or p >= 1.
func (r *RNG) Bool(p float64) bool { return r.Below(NewThreshold(p)) }

// Threshold is a probability p prepared for integer-domain draws. With
// k = Uint64()>>11, Float64() is exactly k/2^53, so for p in (0, 1)
// Float64() < p ⇔ k < ceil(p·2^53) ⇔ Uint64() < ceil(p·2^53)<<11. The
// largest p below 1 is 1-2^-53, so the shift never overflows.
type Threshold struct {
	hi, lo uint32 // the bound, split to decide most draws on the high word
	// edge is +1 for p >= 1 and -1 for p <= 0: decided without a draw.
	// NaN keeps edge 0 and a zero bound, so it draws and never hits, as
	// Float64() < NaN never held.
	edge int8
}

// NewThreshold prepares p for Below and Geometric.
func NewThreshold(p float64) Threshold {
	switch {
	case p >= 1:
		return Threshold{edge: 1}
	case p <= 0:
		return Threshold{edge: -1}
	case p > 0:
		t := uint64(math.Ceil(p*(1<<53))) << 11
		return Threshold{hi: uint32(t >> 32), lo: uint32(t)}
	}
	return Threshold{} // NaN
}

// Below is one Bernoulli draw: exactly Bool(p) for the p t was prepared
// from, consuming the same draw.
func (r *RNG) Below(t Threshold) bool {
	if t.edge != 0 {
		return t.edge > 0
	}
	s := r.state
	r.state = s*pcgMultiplier2 + r.inc*(pcgMultiplier+1)
	return t.hit(s, r.inc)
}

// hit reports whether the Uint64 drawn from state s is below t, computing
// the low output word only when the high words tie.
func (t Threshold) hit(s, inc uint64) bool {
	if hi := output(s); hi != t.hi {
		return hi < t.hi
	}
	return output(s*pcgMultiplier+inc) < t.lo
}

// Geometric returns the number of failed Below draws before the first
// success: a geometric sample with success probability p. For p >= 1 it
// is 0 and for p <= 0 it is 1<<20, the cap on any sample, both without a
// draw. The state stays in a register across the trials.
func (r *RNG) Geometric(t Threshold) int {
	if t.edge != 0 {
		if t.edge > 0 {
			return 0
		}
		return 1 << 20
	}
	s, inc := r.state, r.inc
	step := inc * (pcgMultiplier + 1)
	n := 0
	for {
		draw := s
		s = draw*pcgMultiplier2 + step
		if t.hit(draw, inc) {
			break
		}
		n++
		if n >= 1<<20 {
			break
		}
	}
	r.state = s
	return n
}

// Range returns a uniform integer in [lo, hi] inclusive. It panics if
// hi < lo.
func (r *RNG) Range(lo, hi int) int {
	if hi < lo {
		panic("rng: Range with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// WeightedChoice returns an index in [0, len(weights)) with probability
// proportional to weights[i]. Zero or negative weights are treated as zero.
// It panics if the total weight is not positive.
type WeightedChoice struct {
	cum []float64
}

// NewWeightedChoice builds a sampler over the given weights.
func NewWeightedChoice(weights []float64) *WeightedChoice {
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w > 0 {
			total += w
		}
		cum[i] = total
	}
	if total <= 0 {
		panic("rng: WeightedChoice with non-positive total weight")
	}
	return &WeightedChoice{cum: cum}
}

// Sample draws one index using r.
func (w *WeightedChoice) Sample(r *RNG) int {
	x := r.Float64() * w.cum[len(w.cum)-1]
	// The first cumulative weight exceeding x; the last index if none does.
	return sort.Search(len(w.cum)-1, func(i int) bool { return w.cum[i] > x })
}

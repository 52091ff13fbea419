package workload

import (
	"math/bits"

	"paco/internal/rng"
)

// BranchClass enumerates the behavioural classes of static conditional
// branches. The mix of classes (and their parameters) is what gives each
// synthetic benchmark its characteristic mispredict rate and MDC-bucket
// stratification.
type BranchClass uint8

// Branch behaviour classes.
const (
	// ClassBiased branches are taken with a fixed probability (usually
	// near 0 or 1): highly predictable by a bimodal predictor, with a
	// residual mispredict rate of min(p, 1-p).
	ClassBiased BranchClass = iota
	// ClassLoop branches are taken tripCount-1 consecutive times then
	// fall through once. Long trip counts mispredict only at the exit;
	// short ones may be learned by the history-based component.
	ClassLoop
	// ClassPattern branches repeat a fixed short direction pattern:
	// learnable by gshare, essentially perfectly predicted once warm.
	ClassPattern
	// ClassCorrelated branches compute their direction from the recent
	// global outcome history: mispredicted by bimodal, learned by gshare.
	ClassCorrelated
	// ClassNoisy branches follow a pattern but flip with probability
	// epsilon: mispredict rate ~= epsilon regardless of training.
	ClassNoisy
	// ClassRandom branches are taken with probability ~0.5 independently:
	// ~50% mispredict rate, the hardest class.
	ClassRandom
	numClasses
)

// String returns the class name.
func (c BranchClass) String() string {
	switch c {
	case ClassBiased:
		return "biased"
	case ClassLoop:
		return "loop"
	case ClassPattern:
		return "pattern"
	case ClassCorrelated:
		return "correlated"
	case ClassNoisy:
		return "noisy"
	case ClassRandom:
		return "random"
	default:
		return "unknown"
	}
}

// globalCtx carries the cross-branch state outcome generators may consult:
// the recent actual-outcome history (for correlated branches) and the
// mispredict-storm state (for gap-style clustered behaviour).
type globalCtx struct {
	history uint32 // recent actual outcomes, bit 0 = most recent

	stormActive bool
	stormEnter  rng.Threshold // probability per branch of entering a storm
	stormExit   rng.Threshold // probability per branch of leaving a storm
	stormFlip   rng.Threshold // probability a storm flips this outcome
	stormRNG    rng.RNG
}

func (g *globalCtx) push(taken bool) {
	g.history <<= 1
	if taken {
		g.history |= 1
	}
}

// maybeStormFlip applies the gap-style correlated-mispredict storm: storms
// start and stop at random, and while active they randomly flip branch
// outcomes, producing globally clustered mispredicts that violate PaCo's
// independence assumption exactly the way the paper describes.
//
// With StormEnter 0 a storm never starts, and Below decides a zero
// probability without a draw, so the stream is untouched.
func (g *globalCtx) maybeStormFlip(taken bool) bool {
	if g.stormActive {
		if g.stormRNG.Below(g.stormExit) {
			g.stormActive = false
		}
	} else if g.stormRNG.Below(g.stormEnter) {
		g.stormActive = true
	}
	if g.stormActive && g.stormRNG.Below(g.stormFlip) {
		return !taken
	}
	return taken
}

// staticBranch is one static conditional branch: its outcome generator, a
// tagged union of the class parameters, plus its private RNG stream so
// behaviour is independent of CFG interleaving. It holds no pointers, so
// a program keeps every branch by value in one slab.
//
//   - ClassBiased, ClassRandom: taken with probability p.
//   - ClassLoop: a data-dependent loop backedge, taken until exit, with a
//     geometric (memoryless) exit hazard p = 1/trip per iteration. Real
//     loop trip counts are mostly data-dependent at this granularity; a
//     fixed deterministic trip would make windows between exits certainly
//     safe, which no fetch-time predictor can know, and would break the
//     independence assumption far more than SPEC-like code does.
//   - ClassPattern, ClassCorrelated: the parity of the global history
//     bits in mask, inverted if invert.
//   - ClassNoisy: taken with probability p, then flipped with
//     probability eps.
type staticBranch struct {
	rng rng.RNG
	// outcome counters for diagnostics
	executed uint64
	taken    uint64
	p, eps   rng.Threshold
	mask     uint32
	class    BranchClass
	invert   bool
}

func (sb *staticBranch) next(g *globalCtx) bool {
	var t bool
	switch sb.class {
	case ClassLoop:
		t = !sb.rng.Below(sb.p)
	case ClassPattern, ClassCorrelated:
		t = (bits.OnesCount32(g.history&sb.mask)&1 == 1) != sb.invert
	case ClassNoisy:
		t = sb.rng.Below(sb.p)
		if sb.rng.Below(sb.eps) {
			t = !t
		}
	default: // ClassBiased, ClassRandom
		t = sb.rng.Below(sb.p)
	}
	t = g.maybeStormFlip(t)
	g.push(t)
	sb.executed++
	if t {
		sb.taken++
	}
	return t
}

// BranchMix describes the static conditional branch population of one
// phase: relative weights of each class and the class parameters.
type BranchMix struct {
	// Weights by class; zero-weight classes produce no branches.
	Biased, Loop, Pattern, Correlated, Noisy, Random float64

	// BiasedP is the taken probability of biased branches (values near 1;
	// the generator mirrors half of them to near 0).
	BiasedP float64
	// LoopTripMin/Max bound loop trip counts (inclusive).
	LoopTripMin, LoopTripMax int
	// PatternLenMin/Max bound pattern lengths (inclusive, <= 32).
	PatternLenMin, PatternLenMax int
	// NoisyEps is the flip probability of noisy branches.
	NoisyEps float64
	// RandomP is the taken probability of random branches (near 0.5).
	RandomP float64
}

// normalized weights in class order.
func (m BranchMix) weights() []float64 {
	return []float64{m.Biased, m.Loop, m.Pattern, m.Correlated, m.Noisy, m.Random}
}

// half is a fair coin, prepared once.
var half = rng.NewThreshold(0.5)

// fork seeds dst exactly as r.Fork() seeds the generator it returns,
// without allocating one.
func fork(dst, r *rng.RNG) { dst.Seed(r.Uint64(), r.Uint64()) }

// newBranch samples one static branch of class cls from the mix: its
// parameters, then its private RNG stream.
func (m *BranchMix) newBranch(cls BranchClass, r *rng.RNG) staticBranch {
	sb := staticBranch{class: cls}
	switch cls {
	case ClassBiased:
		p := m.BiasedP
		if p <= 0 {
			p = 0.98
		}
		if r.Below(half) {
			p = 1 - p
		}
		sb.p = rng.NewThreshold(p)
	case ClassLoop:
		lo, hi := m.LoopTripMin, m.LoopTripMax
		if lo <= 1 {
			lo = 4
		}
		if hi < lo {
			hi = lo
		}
		sb.p = rng.NewThreshold(1 / float64(r.Range(lo, hi)))
	case ClassPattern:
		// A deterministic function of 3 recent global outcomes: learnable
		// by the gshare component (slightly slower to warm than
		// ClassCorrelated's 2-bit function). A fixed repeating local
		// pattern would be invisible to a global-history predictor.
		for bits.OnesCount32(sb.mask) < 3 {
			sb.mask |= 1 << uint(r.Intn(7))
		}
		sb.invert = r.Below(half)
	case ClassCorrelated:
		// Use 2-3 bits of recent history within gshare's reach.
		for bits.OnesCount32(sb.mask) < 2 {
			sb.mask |= 1 << uint(r.Intn(6))
		}
		sb.invert = r.Below(half)
	case ClassNoisy:
		// A strongly biased branch flipped with probability epsilon: the
		// predictor learns the bias, leaving a mispredict rate of ~eps.
		eps := m.NoisyEps
		if eps <= 0 {
			eps = 0.10
		}
		p := 0.97
		if r.Below(half) {
			p = 1 - p
		}
		sb.p, sb.eps = rng.NewThreshold(p), rng.NewThreshold(eps)
	case ClassRandom:
		p := m.RandomP
		if p <= 0 {
			p = 0.5
		}
		sb.p = rng.NewThreshold(p)
	default:
		panic("workload: unknown branch class")
	}
	fork(&sb.rng, r)
	return sb
}

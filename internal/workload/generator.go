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
	stormEnter  float64 // probability per branch of entering a storm
	stormExit   float64 // probability per branch of leaving a storm
	stormFlip   float64 // probability a storm flips this outcome
	stormRNG    *rng.RNG
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
func (g *globalCtx) maybeStormFlip(taken bool) bool {
	if g.stormRNG == nil || (g.stormEnter <= 0 && !g.stormActive) {
		return taken
	}
	if g.stormActive {
		if g.stormRNG.Bool(g.stormExit) {
			g.stormActive = false
		}
	} else if g.stormRNG.Bool(g.stormEnter) {
		g.stormActive = true
	}
	if g.stormActive && g.stormRNG.Bool(g.stormFlip) {
		return !taken
	}
	return taken
}

// outcomeGen produces the actual direction sequence of one static branch.
type outcomeGen interface {
	next(g *globalCtx, r *rng.RNG) bool
	class() BranchClass
}

type biasedGen struct{ pTaken float64 }

func (b *biasedGen) next(_ *globalCtx, r *rng.RNG) bool { return r.Bool(b.pTaken) }
func (b *biasedGen) class() BranchClass                 { return ClassBiased }

// loopGen models a data-dependent loop backedge: taken until exit, with a
// geometric (memoryless) exit hazard of 1/trip per iteration. Real loop
// trip counts are mostly data-dependent at this granularity; a fixed
// deterministic trip would make windows between exits certainly safe,
// which no fetch-time predictor can know, and would break the
// independence assumption far more than SPEC-like code does.
type loopGen struct {
	trip int // mean iterations per loop instance
}

func (l *loopGen) next(_ *globalCtx, r *rng.RNG) bool {
	return !r.Bool(1 / float64(l.trip))
}
func (l *loopGen) class() BranchClass { return ClassLoop }

type patternGen struct {
	pattern uint64
	length  int
	pos     int
}

func (p *patternGen) next(*globalCtx, *rng.RNG) bool {
	taken := p.pattern>>uint(p.pos)&1 == 1
	p.pos = (p.pos + 1) % p.length
	return taken
}
func (p *patternGen) class() BranchClass { return ClassPattern }

type correlatedGen struct {
	maskBits uint32 // which history bits feed the XOR
	invert   bool
	cls      BranchClass
}

func (c *correlatedGen) next(g *globalCtx, _ *rng.RNG) bool {
	x := g.history & c.maskBits
	taken := bits.OnesCount32(x)&1 == 1
	if c.invert {
		taken = !taken
	}
	return taken
}
func (c *correlatedGen) class() BranchClass { return c.cls }

type noisyGen struct {
	inner outcomeGen
	eps   float64
}

func (n *noisyGen) next(g *globalCtx, r *rng.RNG) bool {
	taken := n.inner.next(g, r)
	if r.Bool(n.eps) {
		return !taken
	}
	return taken
}
func (n *noisyGen) class() BranchClass { return ClassNoisy }

type randomGen struct{ pTaken float64 }

func (rg *randomGen) next(_ *globalCtx, r *rng.RNG) bool { return r.Bool(rg.pTaken) }
func (rg *randomGen) class() BranchClass                 { return ClassRandom }

// staticBranch is one static conditional branch: an outcome generator plus
// its private RNG stream so behaviour is independent of CFG interleaving.
type staticBranch struct {
	id  int
	gen outcomeGen
	rng *rng.RNG
	// outcome counters for diagnostics
	executed uint64
	taken    uint64
}

func (sb *staticBranch) next(g *globalCtx) bool {
	t := sb.gen.next(g, sb.rng)
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

// makeBranch samples one static branch from the mix.
func (m BranchMix) makeBranch(id int, choice *rng.WeightedChoice, r *rng.RNG) *staticBranch {
	cls := BranchClass(choice.Sample(r))
	var gen outcomeGen
	switch cls {
	case ClassBiased:
		p := m.BiasedP
		if p <= 0 {
			p = 0.98
		}
		if r.Bool(0.5) {
			p = 1 - p
		}
		gen = &biasedGen{pTaken: p}
	case ClassLoop:
		lo, hi := m.LoopTripMin, m.LoopTripMax
		if lo <= 1 {
			lo = 4
		}
		if hi < lo {
			hi = lo
		}
		gen = &loopGen{trip: r.Range(lo, hi)}
	case ClassPattern:
		// A deterministic function of 3 recent global outcomes: learnable
		// by the gshare component (slightly slower to warm than
		// ClassCorrelated's 2-bit function). A fixed repeating local
		// pattern would be invisible to a global-history predictor.
		mask := uint32(0)
		for bits.OnesCount32(mask) < 3 {
			mask |= 1 << uint(r.Intn(7))
		}
		gen = &correlatedGen{maskBits: mask, invert: r.Bool(0.5), cls: ClassPattern}
	case ClassCorrelated:
		// Use 2-3 bits of recent history within gshare's reach.
		mask := uint32(0)
		for bits.OnesCount32(mask) < 2 {
			mask |= 1 << uint(r.Intn(6))
		}
		gen = &correlatedGen{maskBits: mask, invert: r.Bool(0.5), cls: ClassCorrelated}
	case ClassNoisy:
		// A strongly biased branch flipped with probability epsilon: the
		// predictor learns the bias, leaving a mispredict rate of ~eps.
		eps := m.NoisyEps
		if eps <= 0 {
			eps = 0.10
		}
		p := 0.97
		if r.Bool(0.5) {
			p = 1 - p
		}
		gen = &noisyGen{inner: &biasedGen{pTaken: p}, eps: eps}
	case ClassRandom:
		p := m.RandomP
		if p <= 0 {
			p = 0.5
		}
		gen = &randomGen{pTaken: p}
	default:
		panic("workload: unknown branch class")
	}
	return &staticBranch{id: id, gen: gen, rng: r.Fork()}
}

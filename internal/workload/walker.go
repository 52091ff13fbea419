package workload

import "paco/internal/rng"

// maxCallDepth bounds the walker's return-address stack; deeper call
// chains discard their oldest frames (matching a clamped hardware RAS).
const maxCallDepth = 64

// Walker produces the goodpath dynamic instruction stream of a benchmark by
// walking its control-flow graph. It is only advanced for goodpath fetches;
// when the simulator recovers from a misprediction it resumes exactly where
// the walker stopped.
type Walker struct {
	spec   *Spec
	prog   *program
	mems   []memPattern // prog.mems, one load closer to Next
	r      *rng.RNG
	ctx    globalCtx
	wsMask uint64

	phase         int
	phaseCount    uint64
	region        []block
	blockIdx      int
	instrIdx      int
	callStack     []int
	produced      uint64
	kindCounts    [numKinds]uint64
	phaseSwitches uint64
}

// NewWalker builds the benchmark's program and returns a walker positioned
// at its entry.
func NewWalker(spec *Spec) (*Walker, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	r := rng.NewStream(spec.Seed, 0x5eed)
	prog := build(spec, r)
	w := &Walker{
		spec:      spec,
		prog:      prog,
		mems:      prog.mems,
		r:         r.Fork(),
		wsMask:    nextPow2u(uint64(spec.WorkingSetKB)*1024) - 1,
		callStack: make([]int, 0, maxCallDepth),
	}
	w.ctx = globalCtx{
		stormEnter: spec.StormEnter,
		stormExit:  spec.StormExit,
		stormFlip:  spec.StormFlip,
		stormRNG:   r.Fork(),
	}
	w.region = w.prog.regions[0]
	w.blockIdx = w.prog.entries[0]
	return w, nil
}

// Spec returns the walker's benchmark spec.
func (w *Walker) Spec() *Spec { return w.spec }

// Produced returns how many goodpath instructions have been generated.
func (w *Walker) Produced() uint64 { return w.produced }

// Phase returns the index of the currently active phase.
func (w *Walker) Phase() int { return w.phase }

// PhaseSwitches returns how many phase transitions have occurred.
func (w *Walker) PhaseSwitches() uint64 { return w.phaseSwitches }

// KindCount returns how many instructions of kind k have been produced.
func (w *Walker) KindCount(k Kind) uint64 { return w.kindCounts[k] }

// Next produces the next goodpath instruction.
func (w *Walker) Next() Instruction {
	w.maybeSwitchPhase()
	blk := &w.region[w.blockIdx]
	// Fall through terminator-less blocks (segment stitching).
	for w.instrIdx >= len(blk.instrs) && blk.term.kind == kindFallthrough {
		w.blockIdx = blk.term.fallBlk
		w.instrIdx = 0
		blk = &w.region[w.blockIdx]
	}
	var ins Instruction
	if w.instrIdx < len(blk.instrs) {
		si := &blk.instrs[w.instrIdx]
		ins = Instruction{
			PC:       blk.pc + uint64(w.instrIdx)*instrBytes,
			Kind:     si.kind,
			Lat:      uint64(si.lat),
			Dep1:     w.depDist(),
			StaticID: -1,
		}
		if si.hasDep2 {
			ins.Dep2 = w.depDist()
		}
		if si.mem != 0 {
			ins.Addr = w.mems[si.mem-1].next(w.r, w.wsMask)
		}
		ins.NextPC = ins.PC + instrBytes
		w.instrIdx++
	} else {
		ins = w.terminatorInstr(blk)
	}
	w.produced++
	w.phaseCount++
	w.kindCounts[ins.Kind]++
	return ins
}

func (w *Walker) depP() float64 {
	p := w.spec.DepGeoP
	if p <= 0 || p > 1 {
		return 0.5
	}
	return p
}

// depDist samples one dependence distance: a third of values are
// independent (zero), the rest geometric — wide enough for realistic ILP.
// The independence draw compares an inlined Float64 against the constant
// directly (exactly what Bool does for an in-range p) — this runs once or
// twice per simulated instruction.
func (w *Walker) depDist() int {
	if w.r.Float64() < 0.3 {
		return 0
	}
	return 1 + w.r.Geometric(w.depP())
}

func (w *Walker) terminatorInstr(blk *block) Instruction {
	t := &blk.term
	termPC := blk.pc + uint64(len(blk.instrs))*instrBytes
	ins := Instruction{
		PC:       termPC,
		Kind:     t.kind,
		Lat:      1,
		Dep1:     w.depDist(),
		StaticID: -1,
	}
	switch t.kind {
	case KindBranch:
		taken := t.branch.next(&w.ctx)
		ins.Taken = taken
		ins.StaticID = t.branch.id
		if taken {
			w.blockIdx = t.takenBlk
			ins.AltPC = w.region[t.fallBlk].pc // mispredicted: falls through
		} else {
			w.blockIdx = t.fallBlk
			ins.AltPC = w.region[t.takenBlk].pc // mispredicted: takes the branch
		}
		ins.NextPC = w.region[w.blockIdx].pc
	case KindJump:
		w.blockIdx = t.takenBlk
		ins.NextPC = w.region[w.blockIdx].pc
	case KindCall:
		// Clamp by sliding in place rather than re-slicing off the front:
		// the backing array keeps its full capacity, so pushes never
		// reallocate in steady state. Contents match the seed's behaviour
		// (the deepest maxCallDepth return sites are retained).
		if len(w.callStack) >= maxCallDepth {
			copy(w.callStack, w.callStack[len(w.callStack)-maxCallDepth+1:])
			w.callStack = w.callStack[:maxCallDepth-1]
		}
		w.callStack = append(w.callStack, t.fallBlk)
		w.blockIdx = t.takenBlk
		ins.NextPC = w.region[w.blockIdx].pc
	case KindReturn:
		if n := len(w.callStack); n > 0 {
			w.blockIdx = w.callStack[n-1]
			w.callStack = w.callStack[:n-1]
		} else {
			// Unbalanced return (clamped stack or phase switch): restart
			// at the region's driver loop.
			w.blockIdx = w.prog.entries[w.phase]
		}
		ins.NextPC = w.region[w.blockIdx].pc
	case KindIndirect:
		w.blockIdx = t.indirect[w.r.Intn(len(t.indirect))]
		ins.NextPC = w.region[w.blockIdx].pc
	default:
		panic("workload: bad terminator kind")
	}
	w.instrIdx = 0
	return ins
}

func (w *Walker) maybeSwitchPhase() {
	ph := &w.spec.Phases[w.phase]
	if w.phaseCount < ph.Instructions {
		return
	}
	w.phaseCount = 0
	w.phase = (w.phase + 1) % len(w.spec.Phases)
	w.region = w.prog.regions[w.phase]
	w.blockIdx = w.prog.entries[w.phase]
	w.instrIdx = 0
	w.callStack = w.callStack[:0]
	w.phaseSwitches++
}

// BranchStats summarizes one static branch for diagnostics.
type BranchStats struct {
	ID       int
	Class    BranchClass
	Executed uint64
	Taken    uint64
}

// BranchStats returns per-static-branch execution statistics.
func (w *Walker) BranchStats() []BranchStats {
	out := make([]BranchStats, 0, len(w.prog.branches))
	for _, sb := range w.prog.branches {
		out = append(out, BranchStats{
			ID:       sb.id,
			Class:    sb.gen.class(),
			Executed: sb.executed,
			Taken:    sb.taken,
		})
	}
	return out
}

// WrongPath generates plausible badpath instructions after a misprediction:
// random code addresses within the current program region (so badpath fetch
// exercises the I-cache and BTB realistically) and data addresses spread
// over a region four times the working set (so badpath fills evict goodpath
// lines — the pollution the paper's gating experiments observe).
type WrongPath struct {
	w  *Walker
	r  *rng.RNG
	pc uint64
}

// NewWrongPath returns a badpath generator bound to the walker's program.
func NewWrongPath(w *Walker) *WrongPath {
	return &WrongPath{w: w, r: rng.NewStream(w.spec.Seed, 0xbad)}
}

// Redirect points the generator at a new badpath PC (the mispredicted
// target).
func (wp *WrongPath) Redirect(pc uint64) { wp.pc = pc }

// BadpathMispredictRate is the rate at which badpath conditional branches
// disagree with the live prediction. Badpath instruction content is
// synthetic fiction; making it behave like ordinary code (rather than
// mispredicting half the time) keeps deep wrong-path shadows realistic.
const BadpathMispredictRate = 0.10

// ResolveBranch fixes up a badpath conditional branch produced by Next
// once the pipeline has predicted its direction: the actual outcome agrees
// with the prediction except at BadpathMispredictRate, and the generator's
// fetch position follows the actual path.
func (wp *WrongPath) ResolveBranch(ins *Instruction, predictedTaken bool) {
	taken := predictedTaken
	if wp.r.Bool(BadpathMispredictRate) {
		taken = !taken
	}
	target := ins.AltPC // candidate taken target chosen at generation
	ins.Taken = taken
	if taken {
		ins.NextPC = target
		ins.AltPC = ins.PC + instrBytes
	} else {
		ins.NextPC = ins.PC + instrBytes
		ins.AltPC = target
	}
	wp.pc = ins.NextPC
}

// Next produces the next badpath instruction at the generator's current PC.
func (wp *WrongPath) Next() Instruction {
	ins := Instruction{PC: wp.pc, Lat: 1, Dep1: 1 + wp.r.Geometric(0.5), StaticID: -1}
	x := wp.r.Float64()
	spec := wp.w.spec
	switch {
	case x < spec.LoadFrac:
		ins.Kind = KindLoad
		ins.Lat = 3
		ins.Addr = dataBase + (wp.r.Uint64() & (4*(wp.w.wsMask+1) - 1))
	case x < spec.LoadFrac+spec.StoreFrac:
		ins.Kind = KindStore
		ins.Addr = dataBase + (wp.r.Uint64() & (4*(wp.w.wsMask+1) - 1))
	case x < spec.LoadFrac+spec.StoreFrac+0.15:
		// Badpath control flow: a conditional branch whose outcome is
		// decided against the live prediction by ResolveBranch — badpath
		// code behaves statistically like code, mispredicting at a
		// modest fixed rate rather than 50%. Taken targets are short
		// forward jumps: wrong paths run nearby, mostly I-cache-warm
		// code, so the shadow keeps fetching (and keeps generating
		// instances) until the mispredict resolves.
		ins.Kind = KindBranch
		ins.AltPC = ins.PC + instrBytes*uint64(2+wp.r.Intn(48))
		return ins
	default:
		ins.Kind = KindALU
	}
	ins.NextPC = ins.PC + instrBytes
	wp.pc = ins.NextPC
	return ins
}

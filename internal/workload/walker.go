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
	spec    *Spec
	program // the built code; the hot path reads its slabs directly
	r       rng.RNG
	depGeo  rng.Threshold // DepGeoP, prepared once for depDist
	ctx     globalCtx
	wsMask  uint64

	phase         int
	phaseCount    uint64
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
	depP := spec.DepGeoP
	if depP <= 0 || depP > 1 {
		depP = 0.5
	}
	w := &Walker{
		spec:      spec,
		program:   build(spec, r),
		depGeo:    rng.NewThreshold(depP),
		wsMask:    nextPow2u(uint64(spec.WorkingSetKB)*1024) - 1,
		callStack: make([]int, 0, maxCallDepth),
		ctx: globalCtx{
			stormEnter: rng.NewThreshold(spec.StormEnter),
			stormExit:  rng.NewThreshold(spec.StormExit),
			stormFlip:  rng.NewThreshold(spec.StormFlip),
		},
	}
	fork(&w.r, r)
	fork(&w.ctx.stormRNG, r)
	w.blockIdx = int(w.entries[0])
	return w, nil
}

// Produced returns how many goodpath instructions have been generated.
func (w *Walker) Produced() uint64 { return w.produced }

// Phase returns the index of the currently active phase.
func (w *Walker) Phase() int { return w.phase }

// PhaseSwitches returns how many phase transitions have occurred.
func (w *Walker) PhaseSwitches() uint64 { return w.phaseSwitches }

// KindCount returns how many instructions of kind k have been produced.
func (w *Walker) KindCount(k Kind) uint64 { return w.kindCounts[k] }

// Next returns the next goodpath instruction.
func (w *Walker) Next() (ins Instruction) {
	w.NextInto(&ins)
	return ins
}

// NextInto writes the next goodpath instruction into ins, overwriting
// every field: the kernel generates straight into its fetch slot.
func (w *Walker) NextInto(ins *Instruction) {
	w.maybeSwitchPhase()
	blk := &w.blocks[w.blockIdx]
	// Fall through terminator-less blocks (segment stitching).
	for w.instrIdx >= int(blk.n) && blk.term.kind == kindFallthrough {
		w.blockIdx = int(blk.term.fallBlk)
		w.instrIdx = 0
		blk = &w.blocks[w.blockIdx]
	}
	if w.instrIdx < int(blk.n) {
		si := &w.instrs[int(blk.first)+w.instrIdx]
		// Zero the slot, then store fields: a composite literal would be
		// built on the stack and copied, and the copy's wide loads stall
		// on the literal's narrow stores.
		*ins = Instruction{}
		ins.PC = blk.pc + uint64(w.instrIdx)*instrBytes
		ins.NextPC = ins.PC + instrBytes
		ins.Dep1 = w.depDist()
		ins.StaticID, ins.Lat, ins.Kind = -1, si.lat, si.kind
		if si.hasDep2 {
			ins.Dep2 = w.depDist()
		}
		if si.mem != 0 {
			ins.Addr = w.mems[si.mem-1].next(&w.r, w.wsMask)
		}
		w.instrIdx++
	} else {
		w.terminatorInstr(blk, ins)
	}
	w.produced++
	w.phaseCount++
	w.kindCounts[ins.Kind]++
}

// depIndep is depDist's independence probability, prepared once.
var depIndep = rng.NewThreshold(0.3)

// depDist samples one dependence distance: 30% of values are independent
// (zero), the rest geometric — wide enough for realistic ILP. Both draws
// are integer compares against prepared thresholds; this runs once or
// twice per simulated instruction.
func (w *Walker) depDist() int32 {
	if w.r.Below(depIndep) {
		return 0
	}
	return 1 + int32(w.r.Geometric(w.depGeo))
}

func (w *Walker) terminatorInstr(blk *block, ins *Instruction) {
	t := &blk.term
	*ins = Instruction{} // zeroed, then stored field by field as in NextInto
	ins.PC = blk.pc + uint64(blk.n)*instrBytes
	ins.Dep1 = w.depDist()
	ins.StaticID, ins.Lat, ins.Kind = -1, 1, t.kind
	switch t.kind {
	case KindBranch:
		taken := w.branches[t.aux].next(&w.ctx)
		ins.Taken = taken
		ins.StaticID = t.aux
		if taken {
			w.blockIdx = int(t.takenBlk)
			ins.AltPC = w.blocks[t.fallBlk].pc // mispredicted: falls through
		} else {
			w.blockIdx = int(t.fallBlk)
			ins.AltPC = w.blocks[t.takenBlk].pc // mispredicted: takes the branch
		}
	case KindJump:
		w.blockIdx = int(t.takenBlk)
	case KindCall:
		// Clamp by sliding in place rather than re-slicing off the front:
		// the backing array keeps its full capacity, so pushes never
		// reallocate in steady state. Contents match the seed's behaviour
		// (the deepest maxCallDepth return sites are retained).
		if len(w.callStack) >= maxCallDepth {
			copy(w.callStack, w.callStack[len(w.callStack)-maxCallDepth+1:])
			w.callStack = w.callStack[:maxCallDepth-1]
		}
		w.callStack = append(w.callStack, int(t.fallBlk))
		w.blockIdx = int(t.takenBlk)
	case KindReturn:
		if n := len(w.callStack); n > 0 {
			w.blockIdx = w.callStack[n-1]
			w.callStack = w.callStack[:n-1]
		} else {
			// Unbalanced return (clamped stack or phase switch): restart
			// at the region's driver loop.
			w.blockIdx = int(w.entries[w.phase])
		}
	case KindIndirect:
		// The targets are t.aux consecutive blocks from t.takenBlk.
		w.blockIdx = int(t.takenBlk) + w.r.Intn(int(t.aux))
	default:
		panic("workload: bad terminator kind")
	}
	ins.NextPC = w.blocks[w.blockIdx].pc
	w.instrIdx = 0
}

func (w *Walker) maybeSwitchPhase() {
	ph := &w.spec.Phases[w.phase]
	if w.phaseCount < ph.Instructions {
		return
	}
	w.phaseCount = 0
	w.phase = (w.phase + 1) % len(w.spec.Phases)
	w.blockIdx = int(w.entries[w.phase])
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
	out := make([]BranchStats, 0, len(w.branches))
	for i := range w.branches {
		sb := &w.branches[i]
		out = append(out, BranchStats{
			ID:       i,
			Class:    sb.class,
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

// WrongPath's draw probabilities, prepared once.
var (
	badpathMispredict = rng.NewThreshold(BadpathMispredictRate)
	badpathDep        = rng.NewThreshold(0.5)
)

// ResolveBranch fixes up a badpath conditional branch produced by NextInto
// once the pipeline has predicted its direction: the actual outcome agrees
// with the prediction except at BadpathMispredictRate, and the generator's
// fetch position follows the actual path.
func (wp *WrongPath) ResolveBranch(ins *Instruction, predictedTaken bool) {
	taken := predictedTaken
	if wp.r.Below(badpathMispredict) {
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

// NextInto writes the next badpath instruction at the generator's current
// PC into ins, overwriting every field.
func (wp *WrongPath) NextInto(ins *Instruction) {
	*ins = Instruction{} // zeroed, then stored field by field as in Walker.NextInto
	ins.PC = wp.pc
	ins.Dep1 = 1 + int32(wp.r.Geometric(badpathDep))
	ins.StaticID, ins.Lat = -1, 1
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
		return
	default:
		ins.Kind = KindALU
	}
	ins.NextPC = ins.PC + instrBytes
	wp.pc = ins.NextPC
}

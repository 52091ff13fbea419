package workload

import (
	"fmt"
	"math"

	"paco/internal/rng"
)

// Phase is one phase of a benchmark: a dynamic instruction budget and the
// branch population active during it. Each phase owns a distinct region of
// the synthetic program (distinct static branches), so phase changes shift
// the per-MDC-bucket mispredict rates the way the paper describes for gcc.
type Phase struct {
	// Instructions is the dynamic instruction count of the phase; phases
	// cycle when the schedule is exhausted.
	Instructions uint64
	// Mix is the conditional-branch population of the phase.
	Mix BranchMix
}

// Spec fully describes one synthetic benchmark.
type Spec struct {
	// Name labels the benchmark in tables (matches the paper's names).
	Name string
	// Seed makes the benchmark deterministic; runs with equal seeds
	// produce identical streams.
	Seed uint64

	// Phases is the phase schedule (at least one).
	Phases []Phase

	// BlocksPerPhase sets the approximate number of basic blocks in each
	// phase region (controls instruction footprint / L1I behaviour).
	BlocksPerPhase int
	// AvgBlockLen is the mean non-terminator instructions per block.
	AvgBlockLen int

	// LoadFrac and StoreFrac are the per-instruction probabilities of
	// loads and stores inside a block (rest are ALU).
	LoadFrac, StoreFrac float64
	// LongLatFrac is the fraction of ALU instructions with 3-cycle
	// latency (multiplies etc.).
	LongLatFrac float64
	// DepGeoP parameterizes dependence distances: distance = 1 +
	// Geometric(DepGeoP). Larger values mean shorter dependences (less
	// ILP).
	DepGeoP float64

	// WorkingSetKB is the data working set; load/store addresses fall in
	// it. RandomAddrFrac of memory instructions use uniform random
	// addresses (cache-hostile); the rest use small strides
	// (cache-friendly).
	WorkingSetKB   int
	RandomAddrFrac float64

	// JumpFrac is unused filler-jump weight (kept for spec stability);
	// CallFrac and IndirectFrac set the per-segment probabilities of call
	// segments (inside non-leaf functions) and indirect-dispatch
	// segments. ReturnFrac is implied by function structure.
	JumpFrac, CallFrac, ReturnFrac, IndirectFrac float64
	// IndirectTargets is how many distinct stubs each indirect dispatch
	// jumps among at random; BTB target mispredicts scale with it.
	IndirectTargets int

	// Storm parameters (gap-style clustered mispredicts); zero disables.
	StormEnter, StormExit, StormFlip float64
}

// Clone returns a deep copy of the spec: the returned value shares no
// mutable state with s, so callers may tweak it freely (the registry,
// the campaign engine, and the scenario compiler all rely on this).
// TestNewBenchmarkSharesNoMutableState walks the type with reflection so
// a future reference-typed field cannot silently alias.
func (s *Spec) Clone() *Spec {
	cp := *s
	cp.Phases = append([]Phase(nil), s.Phases...)
	return &cp
}

// Validate reports configuration errors.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload: spec needs a name")
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("workload %s: at least one phase required", s.Name)
	}
	for i, ph := range s.Phases {
		if ph.Instructions == 0 {
			return fmt.Errorf("workload %s: phase %d has zero instructions", s.Name, i)
		}
		w := ph.Mix.weights()
		total := 0.0
		for _, x := range w {
			// build sizes its arrays from the weights, which must be
			// usable as weights.
			if !(x >= 0) || math.IsInf(x, 1) {
				return fmt.Errorf("workload %s: phase %d has class weight %g, want finite and non-negative", s.Name, i, x)
			}
			total += x
		}
		if total <= 0 {
			return fmt.Errorf("workload %s: phase %d has no branch classes", s.Name, i)
		}
	}
	if s.BlocksPerPhase <= 0 {
		return fmt.Errorf("workload %s: BlocksPerPhase must be positive", s.Name)
	}
	if s.AvgBlockLen <= 0 {
		return fmt.Errorf("workload %s: AvgBlockLen must be positive", s.Name)
	}
	if s.WorkingSetKB <= 0 {
		return fmt.Errorf("workload %s: WorkingSetKB must be positive", s.Name)
	}
	// Probability-valued knobs must be probabilities: out-of-range values
	// would not crash (the samplers clamp), they would silently build a
	// degenerate workload — and scenario overrides feed this field-by-field.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"LoadFrac", s.LoadFrac}, {"StoreFrac", s.StoreFrac},
		{"LongLatFrac", s.LongLatFrac}, {"DepGeoP", s.DepGeoP},
		{"RandomAddrFrac", s.RandomAddrFrac}, {"JumpFrac", s.JumpFrac},
		{"CallFrac", s.CallFrac}, {"ReturnFrac", s.ReturnFrac},
		{"IndirectFrac", s.IndirectFrac}, {"StormEnter", s.StormEnter},
		{"StormExit", s.StormExit}, {"StormFlip", s.StormFlip},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("workload %s: %s=%g outside [0, 1]", s.Name, f.name, f.v)
		}
	}
	if s.IndirectTargets < 0 {
		return fmt.Errorf("workload %s: IndirectTargets must be non-negative, got %d", s.Name, s.IndirectTargets)
	}
	return nil
}

// kindFallthrough marks a block with no terminator instruction: execution
// flows directly into fallBlk (used to stitch structured segments).
const kindFallthrough Kind = 0xFF

// terminator kinds mirror Kind but carry CFG data.
type terminator struct {
	kind     Kind
	branch   *staticBranch // conditional only
	takenBlk int           // conditional taken target / jump / call target
	fallBlk  int           // conditional fall-through, call return site, fallthrough next
	indirect []int         // indirect targets
}

// memPattern drives one static memory instruction's address stream.
type memPattern struct {
	base   uint64
	stride uint64
	span   uint64 // wraps within [base, base+span)
	off    uint64
	random bool
}

func (m *memPattern) next(r *rng.RNG, wsMask uint64) uint64 {
	if m.random {
		return m.base + (r.Uint64() & wsMask)
	}
	a := m.base + m.off
	m.off += m.stride
	if m.off >= m.span {
		m.off = 0
	}
	return a
}

// staticInstr is one non-terminator instruction slot in a block. It is 8
// bytes and holds no pointers, so the GC never scans a program's
// instruction arena.
type staticInstr struct {
	mem     uint32 // 1-based index into program.mems; 0: not a memory op
	kind    Kind
	lat     uint8
	hasDep2 bool
}

// block is one basic block of the synthetic program.
type block struct {
	pc     uint64
	instrs []staticInstr
	term   terminator
}

const instrBytes = 4

// dataBase is where the data working set starts (disjoint from code).
const dataBase = 1 << 32

// program is the built code: one region of blocks per phase, each region a
// structured program — a driver loop that calls functions; functions are
// sequences of plain/loop/diamond/call/indirect segments ending in a
// return. This structure guarantees the walk keeps mixing over the whole
// region (a uniformly random digraph collapses into tiny deterministic
// orbits) and gives loop branches real loop semantics: consecutive
// executions with a trip-count exit, which is what the JRS miss distance
// counters key on.
//
// A program is a few flat arrays: each region's blocks, an arena of
// pointer-free static instructions the blocks' instrs are carved from, and
// one table of every static load/store's address pattern.
type program struct {
	regions  [][]block
	entries  []int // driver entry block per region
	branches []*staticBranch
	mems     []memPattern
}

// builder assembles a program region by region.
type builder struct {
	spec   *Spec
	mix    *BranchMix
	choice *rng.WeightedChoice // diamond-class sampler (loop excluded)
	r      *rng.RNG
	blocks []block       // the region being built
	arena  []staticInstr // unused tail of the current instruction chunk
	prog   *program
	nextID int
	ws     uint64
}

// instrChunk is the instruction arena's allocation unit: 32 KiB of
// staticInstrs, enough for several hundred blocks.
const instrChunk = 4096

// build constructs the program for spec.
func build(spec *Spec, r *rng.RNG) *program {
	regionBlocks := make([]int, len(spec.Phases))
	memOps := 0.0
	for phIdx := range spec.Phases {
		regionBlocks[phIdx] = expectedBlocks(spec, &spec.Phases[phIdx].Mix)
		memOps += float64(regionBlocks[phIdx]*spec.AvgBlockLen) * (spec.LoadFrac + spec.StoreFrac)
	}
	p := &program{
		regions: make([][]block, 0, len(spec.Phases)),
		entries: make([]int, 0, len(spec.Phases)),
		mems:    make([]memPattern, 0, int(memOps)),
	}
	b := &builder{spec: spec, r: r, prog: p, ws: uint64(spec.WorkingSetKB) * 1024}
	for phIdx := range spec.Phases {
		ph := &spec.Phases[phIdx]
		// Diamond branches sample from the non-loop classes.
		w := ph.Mix.weights()
		w[ClassLoop] = 0
		b.mix = &ph.Mix
		b.choice = rng.NewWeightedChoice(w)
		b.blocks = make([]block, 0, regionBlocks[phIdx])
		entry := b.buildRegion(phIdx)
		p.regions = append(p.regions, b.blocks)
		p.entries = append(p.entries, entry)
	}
	return p
}

// segment kinds.
const (
	segPlain = iota
	segLoop
	segDiamond
	segCall
	segIndirect
)

// regionFuncs returns how many functions a region has, and how many of
// them are leaves.
func regionFuncs(spec *Spec) (funcs, leaves int) {
	funcs = max(spec.BlocksPerPhase/12, 6)
	return funcs, funcs * 3 / 5
}

// expectedBlocks is the mean block count of a region built for mix, with
// an eighth of headroom: the driver's call blocks, plus per function a
// return block and six segments (the mean of Range(3, 9)), each kind of
// segment weighted by how often segmentKind picks it. It only sizes
// allocations; the build never depends on it.
func expectedBlocks(spec *Spec, mix *BranchMix) int {
	funcs, leaves := regionFuncs(spec)
	stubs := float64(max(spec.IndirectTargets, 2))
	perSegment := func(leaf bool) float64 {
		loop, diamond, call, ind, plain := segmentWeights(spec, mix, leaf)
		blocks := 5*loop + 3*diamond + call + (1+stubs)*ind + plain
		return blocks / (loop + diamond + call + ind + plain)
	}
	n := float64(2*funcs+1) +
		float64(leaves)*(1+6*perSegment(true)) +
		float64(funcs-leaves)*(1+6*perSegment(false))
	return int(n * 9 / 8)
}

// buildRegion lays out one phase region and returns its driver entry block.
func (b *builder) buildRegion(phIdx int) int {
	funcCount, leafCount := regionFuncs(b.spec)
	entries := make([]int, funcCount)
	// Leaves first so call segments have callees.
	for f := 0; f < funcCount; f++ {
		entries[f] = b.buildFunction(f < leafCount, entries[:minInt(f, leafCount)])
	}
	// Driver: a long unrolled loop of calls covering every function, then
	// a jump back to the top.
	driverEntry := len(b.blocks)
	order := make([]int, 0, funcCount*2)
	order = append(order, entries...)
	for i := 0; i < funcCount; i++ {
		order = append(order, entries[b.r.Intn(funcCount)])
	}
	// Shuffle so call order differs between regions.
	for i := len(order) - 1; i > 0; i-- {
		j := b.r.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	for _, callee := range order {
		idx := b.newBlock(2)
		b.blocks[idx].term = terminator{kind: KindCall, takenBlk: callee, fallBlk: idx + 1}
	}
	last := b.newBlock(1)
	b.blocks[last].term = terminator{kind: KindJump, takenBlk: driverEntry}
	b.assignPCs(phIdx)
	return driverEntry
}

// buildFunction appends one function's blocks and returns its entry index.
func (b *builder) buildFunction(leaf bool, callees []int) int {
	entry := len(b.blocks)
	segs := b.r.Range(3, 9)
	for s := 0; s < segs; s++ {
		kind := b.segmentKind(leaf || len(callees) == 0)
		switch kind {
		case segPlain:
			idx := b.newBlock(0)
			b.blocks[idx].term = terminator{kind: kindFallthrough, fallBlk: idx + 1}
		case segLoop:
			// Loop bodies span several blocks, as real loops do; a
			// single-block body would put dozens of in-flight instances
			// of the same backedge in the window at once, all reading
			// the same stale MDC entry.
			header := b.newBlock(1)
			for k := b.r.Range(1, 5); k > 0; k-- {
				idx := b.newBlock(0)
				b.blocks[idx].term = terminator{kind: kindFallthrough, fallBlk: idx + 1}
			}
			last := b.newBlock(0)
			sb := b.makeLoopBranch()
			b.blocks[header].term = terminator{kind: kindFallthrough, fallBlk: header + 1}
			b.blocks[last].term = terminator{kind: KindBranch, branch: sb, takenBlk: header, fallBlk: last + 1}
		case segDiamond:
			idx := b.newBlock(0)
			sb := b.makeDiamondBranch()
			t := b.newBlock(0)
			e := b.newBlock(0)
			b.blocks[idx].term = terminator{kind: KindBranch, branch: sb, takenBlk: t, fallBlk: e}
			b.blocks[t].term = terminator{kind: KindJump, takenBlk: e + 1}
			b.blocks[e].term = terminator{kind: kindFallthrough, fallBlk: e + 1}
		case segCall:
			idx := b.newBlock(0)
			callee := callees[b.r.Intn(len(callees))]
			b.blocks[idx].term = terminator{kind: KindCall, takenBlk: callee, fallBlk: idx + 1}
		case segIndirect:
			n := b.spec.IndirectTargets
			if n < 2 {
				n = 2
			}
			idx := b.newBlock(0)
			targets := make([]int, n)
			for k := 0; k < n; k++ {
				stub := b.newBlock(0)
				targets[k] = stub
				b.blocks[stub].term = terminator{kind: KindJump, takenBlk: idx + n + 1}
			}
			b.blocks[idx].term = terminator{kind: KindIndirect, indirect: targets}
		}
	}
	ret := b.newBlock(0)
	b.blocks[ret].term = terminator{kind: KindReturn}
	return entry
}

// segmentWeights returns the relative weights of a function's segment
// kinds; leaves never contain calls.
func segmentWeights(spec *Spec, mix *BranchMix, leaf bool) (loop, diamond, call, ind, plain float64) {
	loop = mix.Loop
	diamond = mix.Biased + mix.Pattern + mix.Correlated + mix.Noisy + mix.Random
	if !leaf {
		call = spec.CallFrac * 4
	}
	return loop, diamond, call, spec.IndirectFrac * 4, 0.25
}

// segmentKind samples a segment type.
func (b *builder) segmentKind(leaf bool) int {
	loopW, diamondW, callW, indW, plainW := segmentWeights(b.spec, b.mix, leaf)
	x := b.r.Float64() * (loopW + diamondW + callW + indW + plainW)
	switch {
	case x < loopW:
		return segLoop
	case x < loopW+diamondW:
		return segDiamond
	case x < loopW+diamondW+callW:
		return segCall
	case x < loopW+diamondW+callW+indW:
		return segIndirect
	default:
		return segPlain
	}
}

func (b *builder) makeLoopBranch() *staticBranch {
	lo, hi := b.mix.LoopTripMin, b.mix.LoopTripMax
	if lo <= 1 {
		lo = 4
	}
	if hi < lo {
		hi = lo
	}
	sb := &staticBranch{id: b.nextID, gen: &loopGen{trip: b.r.Range(lo, hi)}, rng: b.r.Fork()}
	b.nextID++
	b.prog.branches = append(b.prog.branches, sb)
	return sb
}

func (b *builder) makeDiamondBranch() *staticBranch {
	sb := b.mix.makeBranch(b.nextID, b.choice, b.r)
	b.nextID++
	b.prog.branches = append(b.prog.branches, sb)
	return sb
}

// newBlock appends a block with a sampled body length (plus extraLen) and
// returns its index. Terminator is filled by the caller.
func (b *builder) newBlock(extraLen int) int {
	spec := b.spec
	blen := 1 + b.r.Geometric(1.0/float64(spec.AvgBlockLen)) + extraLen
	if blen > 4*spec.AvgBlockLen {
		blen = 4 * spec.AvgBlockLen
	}
	blk := block{instrs: b.allocInstrs(blen)}
	for j := range blk.instrs {
		si := &blk.instrs[j]
		x := b.r.Float64()
		switch {
		case x < spec.LoadFrac:
			si.kind = KindLoad
			si.lat = 3 // L1 hit pipeline latency
			si.mem = b.addMemPattern()
		case x < spec.LoadFrac+spec.StoreFrac:
			si.kind = KindStore
			si.lat = 1
			si.mem = b.addMemPattern()
		default:
			si.kind = KindALU
			si.lat = 1
			if b.r.Bool(spec.LongLatFrac) {
				si.lat = 3
			}
		}
		si.hasDep2 = b.r.Bool(0.4)
	}
	b.blocks = append(b.blocks, blk)
	return len(b.blocks) - 1
}

// allocInstrs carves n zeroed instruction slots from the arena.
func (b *builder) allocInstrs(n int) []staticInstr {
	if n > len(b.arena) {
		b.arena = make([]staticInstr, max(n, instrChunk))
	}
	s := b.arena[:n:n]
	b.arena = b.arena[n:]
	return s
}

// addMemPattern samples one static memory instruction's address pattern
// into the program's table and returns its 1-based index.
func (b *builder) addMemPattern() uint32 {
	b.prog.mems = append(b.prog.mems, b.makeMemPattern())
	return uint32(len(b.prog.mems))
}

func (b *builder) makeMemPattern() memPattern {
	var m memPattern
	m.random = b.r.Bool(b.spec.RandomAddrFrac)
	wsMask := nextPow2u(b.ws) - 1
	if m.random {
		m.base = dataBase
		m.span = wsMask + 1
		return m
	}
	m.base = dataBase + (b.r.Uint64() & wsMask &^ 63)
	m.stride = uint64(8 * (1 + b.r.Intn(8)))
	m.span = m.stride * uint64(16+b.r.Intn(240))
	return m
}

// assignPCs lays region blocks out contiguously in their own address
// window.
func (b *builder) assignPCs(phIdx int) {
	pc := uint64(0x1000_0000) + uint64(phIdx)<<24
	for i := range b.blocks {
		b.blocks[i].pc = pc
		n := len(b.blocks[i].instrs)
		if b.blocks[i].term.kind != kindFallthrough {
			n++ // terminator instruction
		}
		pc += uint64(n) * instrBytes
	}
}

func nextPow2u(v uint64) uint64 {
	p := uint64(1)
	for p < v {
		p <<= 1
	}
	return p
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

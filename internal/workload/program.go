package workload

import (
	"fmt"
	"math"
	"math/bits"
	"unsafe"

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
	if s.BlocksPerPhase > maxProgramBlocks/len(s.Phases) {
		return fmt.Errorf("workload %s: BlocksPerPhase=%d × %d phases exceeds %d", s.Name, s.BlocksPerPhase, len(s.Phases), maxProgramBlocks)
	}
	if s.AvgBlockLen <= 0 || s.AvgBlockLen > maxAvgBlockLen {
		return fmt.Errorf("workload %s: AvgBlockLen=%d outside [1, %d]", s.Name, s.AvgBlockLen, maxAvgBlockLen)
	}
	if s.WorkingSetKB <= 0 {
		return fmt.Errorf("workload %s: WorkingSetKB must be positive", s.Name)
	}
	// Probability-valued knobs must be probabilities: out-of-range or NaN
	// values would not crash (the samplers clamp), they would silently
	// build a degenerate workload — and scenario overrides feed this
	// field-by-field.
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
		if !(f.v >= 0 && f.v <= 1) {
			return fmt.Errorf("workload %s: %s=%g outside [0, 1]", s.Name, f.name, f.v)
		}
	}
	if s.IndirectTargets < 0 || s.IndirectTargets > maxIndirectTargets {
		return fmt.Errorf("workload %s: IndirectTargets=%d outside [0, %d]", s.Name, s.IndirectTargets, maxIndirectTargets)
	}
	if n := programBytes(s); n > maxProgramBytes {
		return fmt.Errorf("workload %s: program of about %d MiB exceeds %d MiB (BlocksPerPhase, AvgBlockLen, IndirectFrac and IndirectTargets set its size)",
			s.Name, n>>20, maxProgramBytes>>20)
	}
	return nil
}

// Bounds on how large a program a spec may ask for. They sit well above
// every bundled benchmark and scenario family — the largest, server, has
// 8 phases of at most 8,000 blocks (about 14 MiB of program), and
// interpreter dispatches among at most 64 targets — so they only refuse
// a document that would make a worker build a program of over 128 MiB.
// They also keep every program index within an int32.
const (
	maxProgramBlocks   = 1 << 19 // BlocksPerPhase × len(Phases)
	maxAvgBlockLen     = 1024
	maxIndirectTargets = 4096
	maxProgramBytes    = 128 << 20
)

// kindFallthrough marks a block with no terminator instruction: execution
// flows directly into fallBlk (used to stitch structured segments).
const kindFallthrough Kind = 0xFF

// terminator is a block's control transfer. Block indices are
// program-wide.
type terminator struct {
	kind     Kind
	takenBlk int32 // conditional taken target / jump / call target / first indirect target
	fallBlk  int32 // conditional fall-through, call return site, fallthrough next
	aux      int32 // conditional: index into program.branches; indirect: target count
}

// memPattern drives one static memory instruction's address stream.
// Strided patterns wrap within [base, base+span); span is at most
// 64·255 bytes, so the narrow fields hold it.
type memPattern struct {
	base   uint64
	span   uint16
	off    uint16
	stride uint8
	random bool
}

func (m *memPattern) next(r *rng.RNG, wsMask uint64) uint64 {
	if m.random {
		return m.base + (r.Uint64() & wsMask)
	}
	a := m.base + uint64(m.off)
	m.off += uint16(m.stride)
	if m.off >= m.span {
		m.off = 0
	}
	return a
}

// staticInstr is one non-terminator instruction slot in a block.
type staticInstr struct {
	mem     uint32 // 1-based index into program.mems; 0: not a memory op
	kind    Kind
	lat     uint8
	hasDep2 bool
}

// block is one basic block of the synthetic program: its instructions
// are program.instrs[first:first+n], followed by the terminator's.
type block struct {
	pc       uint64
	first, n int32
	term     terminator
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
// A program is five flat slabs of pointer-free values, each made at the
// size programSize estimates: every region's blocks, the static
// instructions the blocks index, the static branches the terminators
// index, every static load/store's address pattern, and each region's
// driver entry. A build makes a handful of allocations, not one per block
// or branch, and the GC never scans a program's contents.
type program struct {
	blocks   []block
	instrs   []staticInstr
	branches []staticBranch
	mems     []memPattern
	entries  []int32 // driver entry block per region
}

// builder assembles a program region by region.
type builder struct {
	program
	spec   *Spec
	mix    *BranchMix
	choice *rng.WeightedChoice // diamond-class sampler (loop excluded)
	r      *rng.RNG
	wsMask uint64
	// Bernoulli draws of the build, prepared once.
	blockLen, longLat, randomAddr rng.Threshold
}

// dep2 is the probability that a static instruction has a second source
// operand, prepared once.
var dep2 = rng.NewThreshold(0.4)

// build constructs the program for spec.
func build(spec *Spec, r *rng.RNG) program {
	blocks, instrs, branches, mems := programSize(spec)
	b := &builder{
		program: program{
			blocks:   make([]block, 0, blocks),
			instrs:   make([]staticInstr, 0, instrs),
			branches: make([]staticBranch, 0, branches),
			mems:     make([]memPattern, 0, mems),
			entries:  make([]int32, 0, len(spec.Phases)),
		},
		spec:       spec,
		r:          r,
		wsMask:     nextPow2u(uint64(spec.WorkingSetKB)*1024) - 1,
		blockLen:   rng.NewThreshold(1 / float64(spec.AvgBlockLen)),
		longLat:    rng.NewThreshold(spec.LongLatFrac),
		randomAddr: rng.NewThreshold(spec.RandomAddrFrac),
	}
	for phIdx := range spec.Phases {
		ph := &spec.Phases[phIdx]
		// Diamond branches sample from the non-loop classes.
		w := ph.Mix.weights()
		w[ClassLoop] = 0
		b.mix = &ph.Mix
		b.choice = rng.NewWeightedChoice(w)
		b.entries = append(b.entries, b.buildRegion(phIdx))
	}
	return b.program
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

// programSize is the mean size of spec's program, with an eighth of
// headroom: its blocks, static instructions, static branches and memory
// patterns. A region has the driver's call blocks, plus per function a
// return block and six segments (the mean of Range(3, 9)), each kind of
// segment weighted by how often segmentKind picks it; loop and diamond
// segments hold one branch each. It sizes the build's slabs and bounds
// Validate; the build never depends on it.
func programSize(spec *Spec) (blocks, instrs, branches, mems int) {
	funcs, leaves := regionFuncs(spec)
	stubs := float64(max(spec.IndirectTargets, 2))
	var nBlocks, nBranches float64
	addFuncs := func(mix *BranchMix, n int, leaf bool) {
		loop, diamond, call, ind, plain := segmentWeights(spec, mix, leaf)
		total := loop + diamond + call + ind + plain
		nBlocks += float64(n) * (1 + 6*(5*loop+3*diamond+call+(1+stubs)*ind+plain)/total)
		nBranches += float64(n) * 6 * (loop + diamond) / total
	}
	for i := range spec.Phases {
		nBlocks += float64(2*funcs + 1)
		addFuncs(&spec.Phases[i].Mix, leaves, true)
		addFuncs(&spec.Phases[i].Mix, funcs-leaves, false)
	}
	blocks = int(nBlocks * 9 / 8)
	instrs = blocks * spec.AvgBlockLen
	return blocks, instrs, int(nBranches * 9 / 8), int(float64(instrs) * (spec.LoadFrac + spec.StoreFrac))
}

// programBytes is the expected size of spec's program slabs.
func programBytes(spec *Spec) int {
	blocks, instrs, branches, mems := programSize(spec)
	return blocks*int(unsafe.Sizeof(block{})) + instrs*int(unsafe.Sizeof(staticInstr{})) +
		branches*int(unsafe.Sizeof(staticBranch{})) + mems*int(unsafe.Sizeof(memPattern{}))
}

// buildRegion lays out one phase region and returns its driver entry block.
func (b *builder) buildRegion(phIdx int) int32 {
	start := len(b.blocks)
	funcCount, leafCount := regionFuncs(b.spec)
	entries := make([]int32, funcCount)
	// Leaves first so call segments have callees.
	for f := 0; f < funcCount; f++ {
		entries[f] = b.buildFunction(f < leafCount, entries[:min(f, leafCount)])
	}
	// Driver: a long unrolled loop of calls covering every function, then
	// a jump back to the top.
	driverEntry := int32(len(b.blocks))
	order := make([]int32, 0, funcCount*2)
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
	b.assignPCs(phIdx, b.blocks[start:])
	return driverEntry
}

// buildFunction appends one function's blocks and returns its entry index.
func (b *builder) buildFunction(leaf bool, callees []int32) int32 {
	entry := int32(len(b.blocks))
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
			sb := b.newBranch(ClassLoop)
			b.blocks[header].term = terminator{kind: kindFallthrough, fallBlk: header + 1}
			b.blocks[last].term = terminator{kind: KindBranch, aux: sb, takenBlk: header, fallBlk: last + 1}
		case segDiamond:
			idx := b.newBlock(0)
			sb := b.newBranch(BranchClass(b.choice.Sample(b.r)))
			t := b.newBlock(0)
			e := b.newBlock(0)
			b.blocks[idx].term = terminator{kind: KindBranch, aux: sb, takenBlk: t, fallBlk: e}
			b.blocks[t].term = terminator{kind: KindJump, takenBlk: e + 1}
			b.blocks[e].term = terminator{kind: kindFallthrough, fallBlk: e + 1}
		case segCall:
			idx := b.newBlock(0)
			callee := callees[b.r.Intn(len(callees))]
			b.blocks[idx].term = terminator{kind: KindCall, takenBlk: callee, fallBlk: idx + 1}
		case segIndirect:
			// The targets are n consecutive stubs, each jumping past the
			// last.
			n := int32(max(b.spec.IndirectTargets, 2))
			idx := b.newBlock(0)
			for k := int32(0); k < n; k++ {
				stub := b.newBlock(0)
				b.blocks[stub].term = terminator{kind: KindJump, takenBlk: idx + n + 1}
			}
			b.blocks[idx].term = terminator{kind: KindIndirect, takenBlk: idx + 1, aux: n}
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

// newBranch appends a static branch of class cls and returns its index,
// which is also its static ID.
func (b *builder) newBranch(cls BranchClass) int32 {
	b.branches = append(b.branches, b.mix.newBranch(cls, b.r))
	return int32(len(b.branches) - 1)
}

// newBlock appends a block with a sampled body length (plus extraLen) and
// returns its index. Terminator is filled by the caller.
func (b *builder) newBlock(extraLen int) int32 {
	spec := b.spec
	blen := 1 + b.r.Geometric(b.blockLen) + extraLen
	if blen > 4*spec.AvgBlockLen {
		blen = 4 * spec.AvgBlockLen
	}
	first := int32(len(b.instrs))
	for range blen {
		var si staticInstr
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
			if b.r.Below(b.longLat) {
				si.lat = 3
			}
		}
		si.hasDep2 = b.r.Below(dep2)
		b.instrs = append(b.instrs, si)
	}
	b.blocks = append(b.blocks, block{first: first, n: int32(blen)})
	return int32(len(b.blocks) - 1)
}

// addMemPattern samples one static memory instruction's address pattern
// into the program's table and returns its 1-based index.
func (b *builder) addMemPattern() uint32 {
	if b.r.Below(b.randomAddr) {
		b.mems = append(b.mems, memPattern{base: dataBase, random: true})
	} else {
		base := dataBase + (b.r.Uint64() & b.wsMask &^ 63)
		stride := 8 * (1 + b.r.Intn(8))
		span := stride * (16 + b.r.Intn(240))
		b.mems = append(b.mems, memPattern{base: base, span: uint16(span), stride: uint8(stride)})
	}
	return uint32(len(b.mems))
}

// assignPCs lays a region's blocks out contiguously in their own address
// window.
func (b *builder) assignPCs(phIdx int, region []block) {
	pc := uint64(0x1000_0000) + uint64(phIdx)<<24
	for i := range region {
		region[i].pc = pc
		n := uint64(region[i].n)
		if region[i].term.kind != kindFallthrough {
			n++ // terminator instruction
		}
		pc += n * instrBytes
	}
}

// nextPow2u is the least power of two >= v, for v >= 1.
func nextPow2u(v uint64) uint64 { return 1 << bits.Len64(v-1) }

package workload

import (
	"math"
	"strings"
	"testing"

	"paco/internal/rng"
)

func testSpec() *Spec {
	return &Spec{
		Name:            "test",
		Seed:            123,
		BlocksPerPhase:  200,
		AvgBlockLen:     5,
		LoadFrac:        0.2,
		StoreFrac:       0.1,
		DepGeoP:         0.3,
		WorkingSetKB:    64,
		CallFrac:        0.04,
		IndirectFrac:    0.02,
		IndirectTargets: 4,
		Phases: []Phase{{
			Instructions: 1 << 62,
			Mix:          BranchMix{Biased: 0.4, Loop: 0.2, Noisy: 0.2, Random: 0.2, NoisyEps: 0.1, LoopTripMin: 5, LoopTripMax: 10},
		}},
	}
}

func TestWalkerDeterminism(t *testing.T) {
	a, err := NewWalker(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewWalker(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		ia, ib := a.Next(), b.Next()
		if ia != ib {
			t.Fatalf("same-seed walkers diverged at %d: %+v vs %+v", i, ia, ib)
		}
	}
}

func TestWalkerSeedsDiffer(t *testing.T) {
	s2 := testSpec()
	s2.Seed = 456
	a, _ := NewWalker(testSpec())
	b, _ := NewWalker(s2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next().PC == b.Next().PC {
			same++
		}
	}
	if same > 900 {
		t.Fatalf("different seeds produced near-identical streams (%d/1000)", same)
	}
}

func TestWalkerControlFlowConsistency(t *testing.T) {
	w, err := NewWalker(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	prev := w.Next()
	for i := 0; i < 100000; i++ {
		cur := w.Next()
		if cur.PC != prev.NextPC {
			t.Fatalf("instr %d at %#x does not follow prev NextPC %#x", i, cur.PC, prev.NextPC)
		}
		if prev.Kind == KindBranch {
			if prev.AltPC == prev.NextPC {
				t.Fatal("branch AltPC equals NextPC")
			}
		}
		prev = cur
	}
}

func TestWalkerKindMix(t *testing.T) {
	w, _ := NewWalker(testSpec())
	for i := 0; i < 200000; i++ {
		w.Next()
	}
	total := w.Produced()
	branches := w.KindCount(KindBranch)
	if branches == 0 {
		t.Fatal("no conditional branches generated")
	}
	frac := float64(branches) / float64(total)
	if frac < 0.02 || frac > 0.35 {
		t.Fatalf("branch fraction %.3f out of plausible range", frac)
	}
	if w.KindCount(KindLoad) == 0 || w.KindCount(KindStore) == 0 {
		t.Fatal("no memory instructions generated")
	}
	if w.KindCount(KindCall) == 0 || w.KindCount(KindReturn) == 0 {
		t.Fatal("no call/return structure generated")
	}
	if w.KindCount(KindIndirect) == 0 {
		t.Fatal("no indirect control generated")
	}
}

func TestWalkerBranchMixing(t *testing.T) {
	// Many distinct static branches must execute: the walk must not get
	// trapped in a small orbit (the failure mode of random digraphs).
	w, _ := NewWalker(testSpec())
	for i := 0; i < 300000; i++ {
		w.Next()
	}
	executed := 0
	for _, bs := range w.BranchStats() {
		if bs.Executed > 0 {
			executed++
		}
	}
	if executed < 20 {
		t.Fatalf("only %d static branches executed — walk is not mixing", executed)
	}
}

func TestWalkerPhases(t *testing.T) {
	s := testSpec()
	s.Phases = []Phase{
		{Instructions: 5000, Mix: s.Phases[0].Mix},
		{Instructions: 5000, Mix: s.Phases[0].Mix},
	}
	w, err := NewWalker(s)
	if err != nil {
		t.Fatal(err)
	}
	if w.Phase() != 0 {
		t.Fatal("initial phase")
	}
	for i := 0; i < 6000; i++ {
		w.Next()
	}
	if w.Phase() != 1 {
		t.Fatalf("phase after 6000 instrs = %d, want 1", w.Phase())
	}
	for i := 0; i < 5000; i++ {
		w.Next()
	}
	if w.Phase() != 0 || w.PhaseSwitches() != 2 {
		t.Fatalf("phase cycling broken: phase=%d switches=%d", w.Phase(), w.PhaseSwitches())
	}
}

func TestMemoryAddressesInWorkingSet(t *testing.T) {
	w, _ := NewWalker(testSpec())
	ws := uint64(64 * 1024)
	for i := 0; i < 50000; i++ {
		ins := w.Next()
		if ins.Kind == KindLoad || ins.Kind == KindStore {
			if ins.Addr < dataBase || ins.Addr >= dataBase+2*ws {
				t.Fatalf("address %#x outside working set window", ins.Addr)
			}
		}
	}
}

func TestSpecValidation(t *testing.T) {
	for _, c := range []struct {
		mutate func(*Spec)
		want   string // the error names what is wrong
	}{
		{func(s *Spec) { s.Name = "" }, "name"},
		{func(s *Spec) { s.Phases = nil }, "phase"},
		{func(s *Spec) { s.Phases[0].Instructions = 0 }, "phase 0"},
		{func(s *Spec) { s.Phases[0].Mix = BranchMix{} }, "phase 0"},
		{func(s *Spec) { s.Phases[0].Mix.Loop = -0.2 }, "phase 0"},
		{func(s *Spec) { s.Phases[0].Mix.Random = math.NaN() }, "phase 0"},
		{func(s *Spec) { s.Phases[0].Mix.Biased = math.Inf(1) }, "phase 0"},
		{func(s *Spec) { s.BlocksPerPhase = 0 }, "BlocksPerPhase"},
		{func(s *Spec) { s.BlocksPerPhase = maxProgramBlocks + 1 }, "BlocksPerPhase"},
		{func(s *Spec) { s.Phases = append(s.Phases, s.Phases[0]); s.BlocksPerPhase = maxProgramBlocks/2 + 1 }, "BlocksPerPhase"},
		{func(s *Spec) { s.BlocksPerPhase = math.MaxInt }, "BlocksPerPhase"},
		{func(s *Spec) { s.AvgBlockLen = 0 }, "AvgBlockLen"},
		{func(s *Spec) { s.AvgBlockLen = maxAvgBlockLen + 1 }, "AvgBlockLen"},
		{func(s *Spec) { s.WorkingSetKB = 0 }, "WorkingSetKB"},
		{func(s *Spec) { s.LoadFrac = 1.5 }, "LoadFrac"},
		{func(s *Spec) { s.StormFlip = math.NaN() }, "StormFlip"},
		{func(s *Spec) { s.IndirectTargets = -1 }, "IndirectTargets"},
		{func(s *Spec) { s.IndirectTargets = maxIndirectTargets + 1 }, "IndirectTargets"},
		// Each field within its bound, the product over the size bound.
		{func(s *Spec) { s.BlocksPerPhase = maxProgramBlocks; s.AvgBlockLen = 64 }, "AvgBlockLen"},
		{func(s *Spec) { s.BlocksPerPhase, s.IndirectFrac, s.IndirectTargets = 4000, 1, maxIndirectTargets }, "IndirectTargets"},
	} {
		s := testSpec()
		c.mutate(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("want an error naming %q, invalid spec passed validation", c.want)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("error %q does not name %q", err, c.want)
		}
	}
	if err := testSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for _, name := range BenchmarkNames {
		if n := programBytes(MustBenchmark(name)); n > maxProgramBytes/8 {
			t.Errorf("%s: program of %d bytes is within 8x of the %d bound", name, n, maxProgramBytes)
		}
	}
}

func TestBenchmarkRegistry(t *testing.T) {
	if len(BenchmarkNames) != 12 {
		t.Fatalf("expected 12 benchmarks, have %d", len(BenchmarkNames))
	}
	for _, n := range BenchmarkNames {
		s, err := NewBenchmark(n)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name != n {
			t.Fatalf("name mismatch: %s vs %s", s.Name, n)
		}
		// The copy must be tweakable without corrupting the registry.
		s.Seed = 999
		s2, _ := NewBenchmark(n)
		if s2.Seed == 999 {
			t.Fatal("registry aliased by returned spec")
		}
	}
	if len(specs) != len(BenchmarkNames) {
		t.Fatalf("registry holds %d models, BenchmarkNames lists %d", len(specs), len(BenchmarkNames))
	}
	if _, err := NewBenchmark("nonesuch"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestWrongPathGenerator(t *testing.T) {
	w, _ := NewWalker(testSpec())
	for i := 0; i < 100; i++ {
		w.Next()
	}
	wp := NewWrongPath(w)
	wp.Redirect(0x1000_0040)
	sawBranch, sawMem := false, false
	pc := uint64(0x1000_0040)
	var ins Instruction
	for i := 0; i < 2000; i++ {
		wp.NextInto(&ins)
		if ins.PC != pc {
			t.Fatalf("badpath PC %#x, expected %#x", ins.PC, pc)
		}
		switch ins.Kind {
		case KindBranch:
			sawBranch = true
			wp.ResolveBranch(&ins, i%2 == 0)
			if ins.NextPC == 0 {
				t.Fatal("ResolveBranch left NextPC unset")
			}
		case KindLoad, KindStore:
			sawMem = true
		}
		pc = ins.NextPC
	}
	if !sawBranch || !sawMem {
		t.Fatalf("badpath stream lacks variety: branch=%v mem=%v", sawBranch, sawMem)
	}
}

func TestWrongPathMispredictRate(t *testing.T) {
	w, _ := NewWalker(testSpec())
	wp := NewWrongPath(w)
	wp.Redirect(0x1000_0000)
	flips := 0
	n := 0
	var ins Instruction
	for i := 0; i < 20000; i++ {
		wp.NextInto(&ins)
		if ins.Kind != KindBranch {
			continue
		}
		wp.ResolveBranch(&ins, true)
		n++
		if !ins.Taken {
			flips++
		}
	}
	rate := float64(flips) / float64(n)
	if rate < 0.05 || rate > 0.16 {
		t.Fatalf("badpath disagreement rate %.3f, want ~%.2f", rate, BadpathMispredictRate)
	}
}

// TestGeneratorClasses checks each outcome generator against its class's
// taken rate, and that history-driven classes draw nothing.
func TestGeneratorClasses(t *testing.T) {
	for _, c := range []struct {
		name   string
		sb     staticBranch
		lo, hi float64
	}{
		// Loop: taken with probability 1-1/trip.
		{"loop trip 10", staticBranch{class: ClassLoop, p: rng.NewThreshold(1.0 / 10)}, 0.88, 0.92},
		// Biased: taken with probability p, mirrored to 1-p by the mix.
		{"biased 0.98", staticBranch{class: ClassBiased, p: rng.NewThreshold(0.98)}, 0.97, 0.99},
		{"biased 0.02", staticBranch{class: ClassBiased, p: rng.NewThreshold(0.02)}, 0.01, 0.03},
		// Noisy: a 0.97-biased draw flipped at eps, so taken at
		// 0.97(1-eps) + 0.03eps.
		{"noisy eps 0.1", staticBranch{class: ClassNoisy, p: rng.NewThreshold(0.97), eps: rng.NewThreshold(0.1)}, 0.86, 0.89},
		{"random 0.5", staticBranch{class: ClassRandom, p: rng.NewThreshold(0.5)}, 0.48, 0.52},
	} {
		sb := c.sb
		fork(&sb.rng, rng.NewStream(3, 0))
		var g globalCtx
		for range 20_000 {
			sb.next(&g)
		}
		if got := float64(sb.taken) / float64(sb.executed); got < c.lo || got > c.hi {
			t.Errorf("%s: taken fraction %.4f, want in [%.2f, %.2f]", c.name, got, c.lo, c.hi)
		}
	}
	// Correlated: deterministic function of history, drawing nothing.
	cg := staticBranch{class: ClassCorrelated, mask: 0b11}
	fork(&cg.rng, rng.NewStream(3, 0))
	state := cg.rng
	var g globalCtx
	g.history = 0b01
	first := cg.next(&g)
	g.history = 0b01
	if cg.next(&g) != first {
		t.Fatal("correlated generator not deterministic given history")
	}
	if cg.rng != state {
		t.Fatal("correlated generator drew from its stream")
	}
}

func TestStormClustering(t *testing.T) {
	r := rng.NewStream(4, 0)
	g := globalCtx{
		stormEnter: rng.NewThreshold(0.01),
		stormExit:  rng.NewThreshold(0.05),
		stormFlip:  rng.NewThreshold(0.5),
	}
	fork(&g.stormRNG, r)
	flips := 0
	for i := 0; i < 50000; i++ {
		if g.maybeStormFlip(true) != true {
			flips++
		}
	}
	if flips == 0 {
		t.Fatal("storms never flipped an outcome")
	}
	// Stationary storm occupancy ~ enter/(enter+exit) = 1/6; flip rate
	// within storms 0.5 -> overall ~8%.
	rate := float64(flips) / 50000
	if rate < 0.03 || rate > 0.15 {
		t.Fatalf("storm flip rate %.3f implausible", rate)
	}
}

func TestBranchClassString(t *testing.T) {
	for c := ClassBiased; c < numClasses; c++ {
		if c.String() == "unknown" {
			t.Fatalf("class %d has no name", c)
		}
	}
}

func TestKindString(t *testing.T) {
	for k := KindALU; k < numKinds; k++ {
		if k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if !KindBranch.IsControl() || KindALU.IsControl() {
		t.Fatal("IsControl misclassifies")
	}
}

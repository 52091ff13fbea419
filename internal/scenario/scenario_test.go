package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"paco/internal/workload"
)

func TestFamiliesRegistered(t *testing.T) {
	want := []string{"adversarial-mdc", "interpreter", "loopy", "phase-thrash", "pointer-chase", "server"}
	got := FamilyNames()
	if len(got) != len(want) {
		t.Fatalf("families = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("families = %v, want %v", got, want)
		}
	}
	for _, f := range Families() {
		if f.Doc == "" || len(f.Params) == 0 {
			t.Fatalf("family %s lacks doc or params", f.Name)
		}
		for _, p := range f.Params {
			if p.Default < p.Min || p.Default > p.Max {
				t.Fatalf("family %s param %s default %g outside [%g, %g]", f.Name, p.Name, p.Default, p.Min, p.Max)
			}
		}
	}
	// Family names must never shadow benchmark models: the campaign grid
	// resolves both through one namespace.
	for _, n := range FamilyNames() {
		if _, err := workload.NewBenchmark(n); err == nil {
			t.Fatalf("family %s collides with a registered benchmark", n)
		}
	}
}

// TestFamiliesReturnsCopies: mutating a listed family cannot reach the
// registry that feeds normalization and cache keys.
func TestFamiliesReturnsCopies(t *testing.T) {
	fams := Families()
	orig := fams[0].Params[0].Default
	fams[0].Params[0].Default = orig + 99
	fams[0].Name = "mutated"
	again := Families()
	if again[0].Name == "mutated" || again[0].Params[0].Default != orig {
		t.Fatal("Families() exposed the live registry")
	}
}

// TestFamiliesCompile compiles every family at its defaults and checks
// the compiled spec produces a stream with the family's signature.
func TestFamiliesCompile(t *testing.T) {
	for _, f := range Families() {
		sc := Scenario{Family: f.Name}
		spec, err := sc.Compile()
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if spec.Name != f.Name {
			t.Fatalf("%s: compiled name %q", f.Name, spec.Name)
		}
		w, err := workload.NewWalker(spec)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if kinds, _ := walkCount(w, 60_000); kinds[workload.KindBranch] == 0 {
			t.Fatalf("%s: no conditional branches", f.Name)
		}
	}
}

// TestProgramSizeBounds checks workload.Spec.Validate's size bounds
// against what scenarios can ask for: every family at the edges of its
// declared ranges and a fuzzed corpus compile, and an override past the
// bounds is refused by name.
func TestProgramSizeBounds(t *testing.T) {
	for _, f := range Families() {
		for _, edge := range []string{"min", "max"} {
			params := map[string]float64{}
			for _, p := range f.Params {
				params[p.Name] = p.Min
				if edge == "max" {
					params[p.Name] = p.Max
				}
			}
			if _, err := (Scenario{Family: f.Name, Params: params}).Compile(); err != nil {
				t.Errorf("%s at its %s params: %v", f.Name, edge, err)
			}
		}
	}
	for seed := uint64(1); seed <= 8; seed++ {
		scs, err := FuzzSpec{Seed: seed, Count: 64}.Generate()
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range scs {
			if _, err := sc.Compile(); err != nil {
				t.Errorf("fuzzed %s: %v", sc.Name, err)
			}
		}
	}
	huge := 1 << 20
	for field, o := range map[string]*OverrideOp{
		"BlocksPerPhase":  {BlocksPerPhase: &huge},
		"AvgBlockLen":     {AvgBlockLen: &huge},
		"IndirectTargets": {IndirectTargets: &huge},
	} {
		_, err := Scenario{Family: "loopy", Ops: []Op{{Override: o}}}.Compile()
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("loopy with %s=%d: got %v, want an error naming %s", field, huge, err, field)
		}
	}
}

func TestFamilySignatures(t *testing.T) {
	walk := func(sc Scenario, n int) (map[workload.Kind]uint64, int) {
		spec, err := sc.Compile()
		if err != nil {
			t.Fatal(err)
		}
		w, err := workload.NewWalker(spec)
		if err != nil {
			t.Fatal(err)
		}
		return walkCount(w, n)
	}
	// interpreter: indirect dispatch dominates other control transfers.
	kinds, _ := walk(Scenario{Family: "interpreter"}, 100_000)
	if ind, br := kinds[workload.KindIndirect], kinds[workload.KindBranch]; ind == 0 || ind < br/8 {
		t.Fatalf("interpreter: indirect %d vs branch %d — dispatch not hot", ind, br)
	}
	// phase-thrash: alternates phases at the configured period.
	if _, switches := walk(Scenario{Family: "phase-thrash", Params: map[string]float64{"period": 5000}}, 60_000); switches < 8 {
		t.Fatalf("phase-thrash: only %d phase switches in 60k instructions", switches)
	}
	// loopy: stays in one phase, branch-heavy and loop-dominated. The
	// walker resets its block and call stack whenever the active phase's
	// instructions run out, even with one phase, so the single phase must
	// outlast the walk.
	const loopyWalk = 60_000
	spec, err := Scenario{Family: "loopy"}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Phases) != 1 {
		t.Fatalf("loopy: %d phases, want 1", len(spec.Phases))
	}
	if n := spec.Phases[0].Instructions; n <= loopyWalk {
		t.Fatalf("loopy: phase of %d instructions ends within the %d-instruction walk", n, loopyWalk)
	}
	if kinds, _ := walk(Scenario{Family: "loopy"}, loopyWalk); kinds[workload.KindBranch] == 0 {
		t.Fatalf("loopy: no conditional branches in %d instructions", loopyWalk)
	}
}

func TestNormalizedFillsDefaults(t *testing.T) {
	n, err := Scenario{Family: "interpreter"}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if n.Version != FormatVersion || n.Name != "interpreter" || n.Seed == 0 {
		t.Fatalf("normalized identity not filled: %+v", n)
	}
	if len(n.Params) != 3 || n.Params["targets"] != 24 {
		t.Fatalf("defaults not spelled out: %v", n.Params)
	}
	// Idempotent.
	n2, err := n.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.Marshal(n)
	j2, _ := json.Marshal(n2)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("normalization not idempotent:\n%s\n%s", j1, j2)
	}
	// Spelling out the defaults changes nothing.
	spelled := Scenario{
		Version: 1, Name: "interpreter", Seed: n.Seed, Family: "interpreter",
		Params: map[string]float64{"dispatch_frac": 0.22, "targets": 24, "bias": 0.999},
	}
	ns, err := spelled.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	j3, _ := json.Marshal(ns)
	if !bytes.Equal(j1, j3) {
		t.Fatalf("spelled-out defaults normalize differently:\n%s\n%s", j1, j3)
	}
}

// TestBaseScenarioMatchesBenchmark: {"base":"gzip"} is the gzip model,
// exactly — same curated seed, byte-identical instruction stream — so
// scenario rows read against benchmark rows from other reports.
func TestBaseScenarioMatchesBenchmark(t *testing.T) {
	spec, err := Scenario{Base: "gzip"}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	bench := benchmark(t, "gzip")
	if spec.Seed != bench.Seed {
		t.Fatalf("base scenario seed %#x, benchmark seed %#x", spec.Seed, bench.Seed)
	}
	ws, _ := workload.NewWalker(spec)
	wb, _ := workload.NewWalker(bench)
	for i := 0; i < 5000; i++ {
		if a, b := next(ws), next(wb); a != b {
			t.Fatalf("instruction %d diverged from the benchmark stream", i)
		}
	}
}

// TestNormalizedSharesNoOps: a normalized scenario must not alias the
// caller's operator structs — mutating the input document after
// normalization cannot change what was validated.
func TestNormalizedSharesNoOps(t *testing.T) {
	ws := 2048
	ov := &OverrideOp{WorkingSetKB: &ws}
	sc := Scenario{Base: "gzip", Ops: []Op{{Override: ov}}}
	n, err := sc.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	ws = 64 // caller mutates their document after the fact
	*ov = OverrideOp{}
	spec, err := n.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if spec.WorkingSetKB != 2048 {
		t.Fatalf("normalized scenario aliased the caller's op: ws=%d", spec.WorkingSetKB)
	}
}

func TestNormalizedRejects(t *testing.T) {
	bad := []Scenario{
		{},                              // neither family nor base
		{Family: "nonesuch"},            // unknown family
		{Base: "nonesuch"},              // unknown benchmark
		{Family: "loopy", Base: "gzip"}, // both
		{Base: "gzip", Params: map[string]float64{"x": 1}},                                                     // params on base
		{Family: "loopy", Params: map[string]float64{"nope": 1}},                                               // unknown param
		{Family: "loopy", Params: map[string]float64{"trip_min": 4}},                                           // out of range
		{Family: "loopy", Params: map[string]float64{"trip_min": 32.5}},                                        // non-integer
		{Version: 99, Family: "loopy"},                                                                         // future format
		{Family: "loopy", Ops: []Op{{}}},                                                                       // empty op
		{Family: "loopy", Ops: []Op{{PhaseMorph: &PhaseMorphOp{}}}},                                            // zero period
		{Family: "loopy", Ops: []Op{{Mix: &MixOp{With: Ref{Benchmark: "gzip"}, Alpha: 1.5}}}},                  // bad alpha
		{Family: "loopy", Ops: []Op{{Mix: &MixOp{With: Ref{}, Alpha: 0.5}}}},                                   // empty ref
		{Family: "loopy", Ops: []Op{{Mix: &MixOp{With: Ref{Benchmark: "gzip", Family: "loopy"}, Alpha: 0.5}}}}, // double ref
	}
	// Structural overrides outside probability range are rejected at
	// compile time (Spec.Validate), same as out-of-range family params.
	for _, frac := range []float64{-0.5, 24} {
		frac := frac
		bad := Scenario{Family: "loopy", Ops: []Op{{Override: &OverrideOp{LoadFrac: &frac}}}}
		if _, err := bad.Compile(); err == nil {
			t.Errorf("override load_frac=%g accepted", frac)
		}
	}
	for i, sc := range bad {
		if _, err := sc.Normalized(); err == nil {
			t.Errorf("case %d: invalid scenario %+v accepted", i, sc)
		}
	}
}

// TestDefaultNamesDistinguishParamPoints: unnamed documents of one
// family at different parameter values derive distinct, deterministic
// names — a parameter sweep needs no hand-invented names.
func TestDefaultNamesDistinguishParamPoints(t *testing.T) {
	a, err := Scenario{Family: "phase-thrash", Params: map[string]float64{"period": 10_000}}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Scenario{Family: "phase-thrash", Params: map[string]float64{"period": 40_000}}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	def, err := Scenario{Family: "phase-thrash"}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if a.Name == b.Name || a.Name == def.Name {
		t.Fatalf("param points share a name: %q, %q, %q", a.Name, b.Name, def.Name)
	}
	if def.Name != "phase-thrash" {
		t.Fatalf("default-params name = %q, want bare family name", def.Name)
	}
	// Deterministic: the same point always derives the same name.
	a2, _ := Scenario{Family: "phase-thrash", Params: map[string]float64{"period": 10_000}}.Normalized()
	if a2.Name != a.Name {
		t.Fatalf("derived name unstable: %q vs %q", a.Name, a2.Name)
	}
}

func TestNestingDepthBounded(t *testing.T) {
	sc := Scenario{Family: "loopy"}
	for i := 0; i < maxRefDepth+2; i++ {
		inner := sc
		sc = Scenario{Family: "loopy", Ops: []Op{{Mix: &MixOp{With: Ref{Scenario: &inner}, Alpha: 0.5}}}}
	}
	if _, err := sc.Normalized(); err == nil {
		t.Fatal("unbounded nesting accepted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	period := uint64(30_000)
	ws := 2048
	sc := Scenario{
		Name: "composite",
		Seed: 42,
		Base: "gzip",
		Ops: []Op{
			{Mix: &MixOp{With: Ref{Family: "adversarial-mdc"}, Alpha: 0.5}},
			{Splice: &SpliceOp{With: Ref{Benchmark: "twolf"}, Instructions: 50_000}},
			{PhaseMorph: &PhaseMorphOp{Period: period}},
			{Override: &OverrideOp{WorkingSetKB: &ws}},
		},
	}
	n, err := sc.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	var back Scenario
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	data2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatalf("round trip changed bytes:\n%s\n%s", data, data2)
	}
	spec, err := back.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if spec.WorkingSetKB != 2048 {
		t.Fatalf("override lost in round trip: ws=%d", spec.WorkingSetKB)
	}
	for i, ph := range spec.Phases {
		if ph.Instructions != period {
			t.Fatalf("phase %d budget %d, want %d (phase_morph lost)", i, ph.Instructions, period)
		}
	}
	if len(spec.Phases) != 2 { // gzip's one + twolf's one
		t.Fatalf("splice lost: %d phases", len(spec.Phases))
	}
}

func TestOps(t *testing.T) {
	// Override.
	ind := 0.3
	spec, err := Scenario{Base: "gzip", Ops: []Op{{Override: &OverrideOp{IndirectFrac: &ind}}}}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if spec.IndirectFrac != 0.3 {
		t.Fatalf("override: IndirectFrac = %g", spec.IndirectFrac)
	}
	// Mix at alpha=1 lands on the target's normalized weights.
	spec, err = Scenario{Base: "gzip", Ops: []Op{{Mix: &MixOp{With: Ref{Benchmark: "twolf"}, Alpha: 1}}}}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	twolf := benchmark(t, "twolf")
	got := normalizeMixWeights(spec.Phases[0].Mix)
	want := normalizeMixWeights(twolf.Phases[0].Mix)
	if math.Abs(got.Noisy-want.Noisy) > 1e-12 || math.Abs(got.Biased-want.Biased) > 1e-12 {
		t.Fatalf("alpha=1 mix: got %+v want %+v", got, want)
	}
	// Splice clamps unbounded source phases.
	spec, err = Scenario{Base: "gzip", Ops: []Op{{Splice: &SpliceOp{With: Ref{Benchmark: "twolf"}}}}}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Phases) != 2 {
		t.Fatalf("splice: %d phases", len(spec.Phases))
	}
	for i, ph := range spec.Phases {
		if ph.Instructions != SpliceDefaultInstructions {
			t.Fatalf("splice: phase %d budget %d not clamped", i, ph.Instructions)
		}
	}
}

// TestCompileDeterminism is the scenario half of the acceptance
// criterion: the same document always compiles to the same spec and
// generates byte-identical instruction streams.
func TestCompileDeterminism(t *testing.T) {
	doc := []byte(`{"family":"phase-thrash","params":{"contrast":0.9},"ops":[{"mix":{"with":{"benchmark":"gap"},"alpha":0.25}}]}`)
	streams := make([][]workload.Instruction, 2)
	for round := range streams {
		var sc Scenario
		if err := json.Unmarshal(doc, &sc); err != nil {
			t.Fatal(err)
		}
		spec, err := sc.Compile()
		if err != nil {
			t.Fatal(err)
		}
		w, err := workload.NewWalker(spec)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5000; i++ {
			streams[round] = append(streams[round], next(w))
		}
	}
	for i := range streams[0] {
		if streams[0][i] != streams[1][i] {
			t.Fatalf("instruction %d diverged: %+v vs %+v", i, streams[0][i], streams[1][i])
		}
	}
}

// TestFuzzerDeterminism is the fuzzer's acceptance criterion: the same
// seed yields byte-identical documents AND byte-identical instruction
// streams; different seeds yield different documents.
func TestFuzzerDeterminism(t *testing.T) {
	const seed, n = 7, 8
	a, err := FuzzSpec{Seed: seed, Count: n}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := FuzzSpec{Seed: seed, Count: n}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("same seed, different documents:\n%s\n%s", ja, jb)
	}
	for i := range a {
		sa, err := a[i].Compile()
		if err != nil {
			t.Fatalf("fuzzed scenario %d: %v", i, err)
		}
		sb, _ := b[i].Compile()
		wa, _ := workload.NewWalker(sa)
		wb, _ := workload.NewWalker(sb)
		for k := 0; k < 2000; k++ {
			ia, ib := next(wa), next(wb)
			if ia != ib {
				t.Fatalf("scenario %d instruction %d diverged", i, k)
			}
		}
	}
	c, _ := FuzzSpec{Seed: seed + 1, Count: n}.Generate()
	jc, _ := json.Marshal(c)
	if bytes.Equal(ja, jc) {
		t.Fatal("different seeds produced identical documents")
	}
}

func TestFuzzSpecRejects(t *testing.T) {
	if _, err := (FuzzSpec{Seed: 1, Count: 0}).Generate(); err == nil {
		t.Fatal("zero count accepted")
	}
	if _, err := (FuzzSpec{Seed: 1, Count: MaxFuzzCount + 1}).Generate(); err == nil {
		t.Fatal("oversized count accepted")
	}
}

func TestMarshalCanonical(t *testing.T) {
	a, err := Scenario{Family: "loopy"}.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Scenario{Family: "loopy", Params: map[string]float64{"trip_min": 100, "trip_max": 240, "loop_weight": 0.35}}.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("equivalent scenarios canonicalize apart:\n%s\n%s", a, b)
	}
}

// benchmark returns the named benchmark model, failing t if there is none.
func benchmark(t testing.TB, name string) *workload.Spec {
	t.Helper()
	spec, err := workload.NewBenchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// next returns w's next goodpath instruction.
func next(w *workload.Walker) (ins workload.Instruction) {
	w.NextInto(&ins)
	return ins
}

// walkCount advances w by n goodpath instructions and returns how many of
// each kind it produced, and how many times its phase changed.
func walkCount(w *workload.Walker, n int) (map[workload.Kind]uint64, int) {
	kinds := make(map[workload.Kind]uint64)
	switches, phase := 0, w.Phase()
	var ins workload.Instruction
	for range n {
		w.NextInto(&ins)
		kinds[ins.Kind]++
		if p := w.Phase(); p != phase {
			switches, phase = switches+1, p
		}
	}
	return kinds, switches
}

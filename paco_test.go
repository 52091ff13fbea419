package paco

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestPublicAPIQuickstart exercises the embedding API end to end: build a
// predictor, feed it a branch lifecycle, gate on its output.
func TestPublicAPIQuickstart(t *testing.T) {
	p := NewPaCo(PaCoConfig{RefreshPeriod: 1000})
	ev := BranchEvent{PC: 0x40, MDC: 0, Conditional: true}
	var contribs []Contribution
	for i := 0; i < 6; i++ {
		contribs = append(contribs, p.BranchFetched(ev))
	}
	if p.GoodpathProb() >= 1 {
		t.Fatal("in-flight branches should lower goodpath probability")
	}
	threshold := EncodeProbThreshold(0.5)
	if p.EncodedSum() <= threshold {
		t.Fatal("six cold bucket-0 branches should cross a 50% threshold")
	}
	for _, c := range contribs {
		p.BranchResolved(c)
	}
	if p.GoodpathProb() != 1 {
		t.Fatal("resolved pipeline should be certain")
	}
	if DecodeProb(EncodeProbThreshold(0.25)) < 0.24 {
		t.Fatal("encode/decode inconsistent")
	}
}

func TestPublicMachine(t *testing.T) {
	m, err := NewMachine(DefaultMachineConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Benchmark("gzip")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPaCo(PaCoConfig{})
	tid, err := m.AddThread(spec, []Estimator{p})
	if err != nil {
		t.Fatal(err)
	}
	m.Run(30_000, 0)
	if m.ThreadStats(tid).RetiredGood < 30_000 {
		t.Fatal("machine did not retire the requested instructions")
	}
	if m.IPC(tid) <= 0 {
		t.Fatal("IPC")
	}
}

func TestPublicBenchmarkNames(t *testing.T) {
	names := BenchmarkNames()
	if len(names) != 12 {
		t.Fatalf("names = %v", names)
	}
	names[0] = "mutated"
	if BenchmarkNames()[0] == "mutated" {
		t.Fatal("BenchmarkNames aliases internal state")
	}
}

func TestPublicGates(t *testing.T) {
	g := NewCountGate(3, 1)
	if g.ShouldGate() {
		t.Fatal("fresh count gate engaged")
	}
	pg := NewProbGate(0.2, 0)
	if pg.ShouldGate() {
		t.Fatal("fresh prob gate engaged")
	}
}

// TestPublicSurface pins the root package to the paper's four entry
// levels: predictor construction, simulation, experiments and live
// sessions. Campaign, service, federation, kernel-bench and scenario
// plumbing stays internal; exporting it here again fails this test.
func TestPublicSurface(t *testing.T) {
	want := []string{
		// Predictor construction.
		"Estimator", "BranchEvent", "Contribution", "PaCo", "PaCoConfig",
		"CountPredictor", "NewPaCo", "NewCountPredictor",
		"EncodeProbThreshold", "DecodeProb", "MDCBuckets",
		// Simulation.
		"Machine", "MachineConfig", "DefaultMachineConfig",
		"SMTMachineConfig", "NewMachine", "Workload", "Benchmark",
		"BenchmarkNames", "Gate", "NewCountGate", "NewProbGate",
		// Experiments.
		"ExperimentConfig", "DefaultExperimentConfig",
		"QuickExperimentConfig", "Experiments", "RunExperiment",
		// Sessions.
		"Session", "SessionConfig", "SessionEstimator", "SessionScores",
		"OpenSession",
	}
	// Every non-test file of the package counts, so a plumbing alias
	// cannot come back through a file beside paco.go.
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, exportedNames(f)...)
	}
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("package paco exports %d names, want the %d entry-level names\ngot  %v\nwant %v",
			len(got), len(want), got, want)
	}
}

// exportedNames lists the exported top-level functions, types, constants
// and variables a file declares; methods are not package names.
func exportedNames(f *ast.File) []string {
	var names []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				names = append(names, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						names = append(names, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							names = append(names, n.Name)
						}
					}
				}
			}
		}
	}
	return names
}

func TestPublicExperiments(t *testing.T) {
	if len(Experiments()) != 14 {
		t.Fatalf("experiments = %v", Experiments())
	}
	cfg := QuickExperimentConfig()
	var buf bytes.Buffer
	if err := RunExperiment("fig3a", cfg, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("no report output")
	}
	if err := RunExperiment("bogus", cfg, &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestSMTMachineConfig(t *testing.T) {
	cfg := SMTMachineConfig()
	if cfg.FetchWidth != 8 || cfg.ROBSize != 512 {
		t.Fatalf("SMT config = %+v", cfg)
	}
	if MDCBuckets != 16 {
		t.Fatal("MDCBuckets")
	}
}

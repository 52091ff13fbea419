// Package experiments reproduces every table and figure in the paper's
// evaluation (see DESIGN.md's per-experiment index): Figure 2 (bucket
// mispredict rates), Figure 3 (goodpath probability at a fixed counter
// value), Table 7 (PaCo RMS error), Figures 8/9 (reliability diagrams),
// Figure 10 (pipeline gating sweep), Figure 12 (SMT fetch prioritization)
// and Appendix Table 1 (MRT variants). Each experiment produces aligned
// text tables whose rows/series match what the paper reports.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"paco/internal/campaign"
	"paco/internal/cpu"
)

// Config scales every experiment; Default matches the repository's
// headline numbers, Quick is small enough for unit tests and benchmarks.
type Config struct {
	// Instructions and Warmup size the single-benchmark measurement runs
	// (Figures 2/3/8/9, Table 7, Appendix Table 1). Warmup instructions
	// train predictors and caches before statistics reset.
	Instructions, Warmup uint64

	// GatingInstructions and GatingWarmup size each point of the Figure
	// 10 sweep (dozens of configurations per benchmark).
	GatingInstructions, GatingWarmup uint64

	// SMTWarmupCycles and SMTMeasureCycles bound each Figure 12 run.
	SMTWarmupCycles, SMTMeasureCycles uint64

	// RefreshPeriod is PaCo's MRT logarithmization period in cycles
	// (paper: 200,000).
	RefreshPeriod uint64

	// GateThresholds and GateCounts define the conventional-predictor
	// gating design space (paper: thresholds 3/7/11/15, gate-counts
	// 1..10). ProbTargets are PaCo's gating targets as probabilities
	// (paper: 2% to 90% in increments of 4).
	GateThresholds []uint32
	GateCounts     []int
	ProbTargets    []float64

	// Machine overrides the single-thread machine (zero value selects
	// cpu.DefaultConfig()).
	Machine *cpu.Config

	// Workers bounds the campaign worker pool every experiment submits
	// its simulation jobs to (<= 0 selects runtime.GOMAXPROCS(0)). For a
	// fixed configuration, results are identical regardless of worker
	// count.
	Workers int

	// Execute, when non-nil, replaces the in-process campaign pool as
	// the executor every experiment submits its measurement jobs to.
	// perfbench's repro workload injects a counting executor here, and
	// the experiments tests an unbatched runner, to check that batching
	// never changes report bytes. Implementations must preserve the
	// campaign contract: one Result per job, in job order. Never part of
	// a cache key (execution strategy cannot perturb deterministic
	// results).
	Execute func(ctx context.Context, workers int, jobs []campaign.Job) ([]campaign.Result, error) `json:"-"`
}

// Default returns the full-scale configuration.
func Default() Config {
	return Config{
		Instructions:       2_000_000,
		Warmup:             400_000,
		GatingInstructions: 600_000,
		GatingWarmup:       200_000,
		SMTWarmupCycles:    200_000,
		SMTMeasureCycles:   800_000,
		RefreshPeriod:      200_000,
		GateThresholds:     []uint32{3, 7, 11, 15},
		GateCounts:         []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		ProbTargets:        probTargets(0.02, 0.90, 0.04),
		Machine:            nil,
	}
}

// Quick returns a configuration small enough for tests: statistics are
// noisier but every code path runs.
func Quick() Config {
	return Config{
		Instructions:       150_000,
		Warmup:             60_000,
		GatingInstructions: 60_000,
		GatingWarmup:       25_000,
		SMTWarmupCycles:    20_000,
		SMTMeasureCycles:   50_000,
		RefreshPeriod:      20_000,
		GateThresholds:     []uint32{3, 15},
		GateCounts:         []int{2, 6},
		ProbTargets:        []float64{0.10, 0.40},
		Machine:            nil,
	}
}

func probTargets(lo, hi, step float64) []float64 {
	var out []float64
	for p := lo; p <= hi+1e-9; p += step {
		out = append(out, p)
	}
	return out
}

func (c Config) machine() cpu.Config {
	if c.Machine != nil {
		return *c.Machine
	}
	return cpu.DefaultConfig()
}

// Runner executes one experiment and writes its report.
type Runner func(cfg Config, w io.Writer) error

var registry = map[string]Runner{}

func register(name string, r Runner) {
	if _, dup := registry[name]; dup {
		panic("experiments: duplicate " + name)
	}
	registry[name] = r
}

// Has reports whether name is a registered experiment — callers that
// route requests (paco-serve distinguishing 404 from execution failure)
// check before running.
func Has(name string) bool {
	_, ok := registry[name]
	return ok
}

// Names returns the registered experiment ids, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Run executes the named experiment.
func Run(name string, cfg Config, w io.Writer) error {
	r, ok := registry[name]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	return r(cfg, w)
}

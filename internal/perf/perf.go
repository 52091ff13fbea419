// Package perf is the kernel throughput harness: it measures how fast the
// simulator simulates — simulated kcycles per wall second, heap
// allocations per cycle, and the per-stage cost breakdown — and records
// the numbers as a JSON report (BENCH_kernel.json) so kernel speed is a
// continuously measured quantity with a trajectory, not a guess. Every
// accuracy experiment runs dozens of cycle-accurate simulations per
// figure; single-core kernel throughput is the floor under all of them.
package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"time"

	"paco/internal/core"
	"paco/internal/cpu"
	"paco/internal/gating"
	"paco/internal/workload"
)

// Schema identifies the report format. v2 added the batched lockstep
// rows (batch_k, speedup_batch) and the honest gomaxprocs field.
const Schema = "paco-bench/v2"

// Options configures one kernel measurement.
type Options struct {
	// WarmupCycles are simulated before measurement so ready queues,
	// wheel buckets, waiter arenas, caches, and predictors reach steady
	// state. Zero selects a default.
	WarmupCycles uint64
	// MeasureCycles are simulated under the clock. Zero selects a
	// default.
	MeasureCycles uint64
	// StageCycles are simulated with per-stage instrumentation for the
	// breakdown (slower per cycle; kept separate from the throughput
	// measurement). Zero selects a default.
	StageCycles uint64
	// SMT attaches a second thread (twolf) and uses the SMT machine.
	SMT bool
	// BatchKs, when non-empty, adds one batched lockstep row per
	// benchmark per width (MeasureBatchKernel). Include 1 to record the
	// singleton-batch baseline the speedup geomean divides by.
	BatchKs []int
}

func (o *Options) defaults() {
	if o.WarmupCycles == 0 {
		o.WarmupCycles = 300_000
	}
	if o.MeasureCycles == 0 {
		o.MeasureCycles = 1_000_000
	}
	if o.StageCycles == 0 {
		o.StageCycles = 200_000
	}
}

// KernelResult is one measured configuration.
type KernelResult struct {
	// Name labels the configuration (benchmark name, "+smt" suffix for
	// the two-thread machine).
	Name string `json:"name"`
	// Cycles is the number of simulated cycles measured.
	Cycles uint64 `json:"cycles"`
	// Instructions is the number of goodpath instructions retired during
	// measurement.
	Instructions uint64 `json:"instructions"`
	// WallSeconds is the measured wall-clock time.
	WallSeconds float64 `json:"wall_seconds"`
	// KCyclesPerSec is simulated kilocycles per wall second — the
	// headline kernel throughput number.
	KCyclesPerSec float64 `json:"kcycles_per_sec"`
	// KInstrsPerSec is retired goodpath kilo-instructions per wall
	// second.
	KInstrsPerSec float64 `json:"kinstrs_per_sec"`
	// AllocsPerCycle is heap allocations per simulated cycle (0 in
	// steady state since the allocation-free kernel refactor).
	AllocsPerCycle float64 `json:"allocs_per_cycle"`
	// BytesPerCycle is heap bytes allocated per simulated cycle.
	BytesPerCycle float64 `json:"bytes_per_cycle"`
	// IPC is the simulated machine's own instructions per cycle (a
	// sanity check that the measured window did real work).
	IPC float64 `json:"ipc"`
	// Stages is each pipeline stage's fraction of kernel time, from a
	// separate instrumented run.
	Stages map[string]float64 `json:"stages,omitempty"`
	// BatchK is the batched lockstep width for rows measured by
	// MeasureBatchKernel (lanes sharing one instruction stream); 0 for
	// ordinary single-core rows. For batched rows Cycles and Instructions
	// sum over all lanes, so KCyclesPerSec is aggregate throughput.
	BatchK int `json:"batch_k,omitempty"`
}

// Report is the full bench artifact.
type Report struct {
	Schema    string `json:"schema"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// NumCPU is the machine's logical CPU count; GOMAXPROCS is the
	// scheduler parallelism in effect. Neither implies the measurement
	// used more than one core: every row here is a single-goroutine
	// kernel measurement (see EXPERIMENTS.md, bench methodology).
	NumCPU     int            `json:"num_cpu"`
	GOMAXPROCS int            `json:"gomaxprocs,omitempty"`
	Results    []KernelResult `json:"results"`
	// SpeedupBatch is the geometric-mean aggregate-throughput ratio of
	// batched rows (BatchK > 1) over their same-benchmark BatchK = 1 row
	// — the lane-scaling headline, and the ratio CI gates on because
	// both sides come from one process on one host. Zero, and so
	// omitted, when the report has no batched rows or no singleton-batch
	// baseline.
	SpeedupBatch float64 `json:"speedup_batch,omitempty"`
}

// buildCore assembles the measured configuration: the benchmark workload
// with one PaCo estimator — the shape every accuracy experiment runs.
func buildCore(bench string, smt bool) (*cpu.Core, error) {
	cfg := cpu.DefaultConfig()
	if smt {
		cfg = cpu.SMTConfig()
	}
	c, err := cpu.New(cfg)
	if err != nil {
		return nil, err
	}
	spec, err := workload.NewBenchmark(bench)
	if err != nil {
		return nil, err
	}
	if _, err := c.AddThread(spec, []core.Estimator{core.NewPaCo(core.PaCoConfig{})}); err != nil {
		return nil, err
	}
	if smt {
		spec2, err := workload.NewBenchmark("twolf")
		if err != nil {
			return nil, err
		}
		if _, err := c.AddThread(spec2, []core.Estimator{core.NewPaCo(core.PaCoConfig{})}); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// retiredGood sums goodpath retirement over all threads.
func retiredGood(c *cpu.Core) uint64 {
	var n uint64
	for tid := 0; tid < c.Threads(); tid++ {
		n += c.ThreadStats(tid).RetiredGood
	}
	return n
}

// MeasureKernel runs one configuration and returns its result.
func MeasureKernel(bench string, opts Options) (KernelResult, error) {
	opts.defaults()
	c, err := buildCore(bench, opts.SMT)
	if err != nil {
		return KernelResult{}, err
	}
	name := bench
	if opts.SMT {
		name += "+smt"
	}

	c.RunCycles(opts.WarmupCycles)

	var msBefore, msAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&msBefore)
	retiredBefore := retiredGood(c)
	start := time.Now()
	c.RunCycles(opts.MeasureCycles)
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&msAfter)
	retired := retiredGood(c) - retiredBefore

	res := KernelResult{
		Name:           name,
		Cycles:         opts.MeasureCycles,
		Instructions:   retired,
		WallSeconds:    wall,
		KCyclesPerSec:  float64(opts.MeasureCycles) / wall / 1e3,
		KInstrsPerSec:  float64(retired) / wall / 1e3,
		AllocsPerCycle: float64(msAfter.Mallocs-msBefore.Mallocs) / float64(opts.MeasureCycles),
		BytesPerCycle:  float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / float64(opts.MeasureCycles),
		IPC:            float64(retired) / float64(opts.MeasureCycles),
	}

	// Separate instrumented pass for the stage breakdown.
	var st cpu.StageTimes
	for i := uint64(0); i < opts.StageCycles; i++ {
		c.StepTimed(&st)
	}
	res.Stages = st.Fractions()
	return res, nil
}

// batchRefreshes is the PaCo refresh-period axis the batched kernel
// measurement sweeps — the same axis the paper's robustness campaigns
// sweep, so the measured batch shape matches real sweep shapes.
var batchRefreshes = [...]uint64{50_000, 100_000, 200_000, 400_000}

// buildBatch assembles a sweep-shaped k-lane batch over one benchmark
// stream: lanes cycle through the refresh axis; odd lanes are
// probability-gated (own core, gate feedback on), even lanes are
// passive PaCo observers merged onto shared cores up to
// cpu.MaxEstimators each — the half-gated half-merged mix a real
// campaign plan produces. Returns the batch plus the per-cell core
// mapping (length k; merged cells point at their shared core).
func buildBatch(bench string, k int) (*cpu.Batch, []*cpu.Core, error) {
	spec, err := workload.NewBenchmark(bench)
	if err != nil {
		return nil, nil, err
	}
	b, err := cpu.NewBatch(spec)
	if err != nil {
		return nil, nil, err
	}
	cells := make([]*cpu.Core, k)
	var shared *cpu.Core
	var sharedEsts []core.Estimator
	flushShared := func() error {
		if shared == nil {
			return nil
		}
		if _, err := b.Attach(shared, sharedEsts); err != nil {
			return err
		}
		shared, sharedEsts = nil, nil
		return nil
	}
	for i := 0; i < k; i++ {
		refresh := batchRefreshes[i%len(batchRefreshes)]
		if i%2 == 1 {
			g := gating.NewProbGate(0.3, refresh)
			c, err := cpu.New(cpu.DefaultConfig())
			if err != nil {
				return nil, nil, err
			}
			if _, err := b.Attach(c, []core.Estimator{g.PaCo()}); err != nil {
				return nil, nil, err
			}
			c.SetGate(g.ShouldGate)
			cells[i] = c
			continue
		}
		if shared != nil && len(sharedEsts)+1 > cpu.MaxEstimators {
			if err := flushShared(); err != nil {
				return nil, nil, err
			}
		}
		if shared == nil {
			c, err := cpu.New(cpu.DefaultConfig())
			if err != nil {
				return nil, nil, err
			}
			shared = c
		}
		sharedEsts = append(sharedEsts, core.NewPaCo(core.PaCoConfig{RefreshPeriod: refresh}))
		cells[i] = shared
	}
	if err := flushShared(); err != nil {
		return nil, nil, err
	}
	return b, cells, nil
}

// MeasureBatchKernel measures the batched lockstep kernel at width k:
// one shared instruction stream feeding a sweep-shaped lane mix (see
// buildBatch). Quotas are instruction counts (the batch scheduler is
// quota-driven, which keeps lane tape positions converged), reusing the
// options' cycle budgets as goodpath-instruction budgets; Cycles and
// Instructions sum per cell — a shared core counts once per merged
// cell, mirroring how each campaign cell reports its core's full
// window — so KCyclesPerSec is effective sweep throughput, the rate at
// which the batch produces cell measurements, directly comparable to
// the k = 1 row to read lane scaling.
func MeasureBatchKernel(bench string, k int, opts Options) (KernelResult, error) {
	opts.defaults()
	if k <= 0 {
		return KernelResult{}, fmt.Errorf("perf: batch width must be positive, got %d", k)
	}
	b, cells, err := buildBatch(bench, k)
	if err != nil {
		return KernelResult{}, err
	}

	b.Run(opts.WarmupCycles)
	for _, c := range cells {
		c.ResetStats() // idempotent for shared cores
	}

	var msBefore, msAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	b.Run(opts.MeasureCycles)
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&msAfter)

	var cycles, retired uint64
	for _, c := range cells {
		cycles += c.Stats().Cycles
		retired += retiredGood(c)
	}
	res := KernelResult{
		Name:           fmt.Sprintf("%s/batch=%d", bench, k),
		BatchK:         k,
		Cycles:         cycles,
		Instructions:   retired,
		WallSeconds:    wall,
		KCyclesPerSec:  float64(cycles) / wall / 1e3,
		KInstrsPerSec:  float64(retired) / wall / 1e3,
		AllocsPerCycle: float64(msAfter.Mallocs-msBefore.Mallocs) / float64(cycles),
		BytesPerCycle:  float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / float64(cycles),
		IPC:            float64(retired) / float64(cycles),
	}

	// Instrumented stage pass: lift the quotas so cycle-driven stepping
	// fetches freely, then step all lanes per call — st.Cycles counts
	// core-cycles, so divide the budget by the core count.
	b.FreeRun()
	var st cpu.StageTimes
	steps := opts.StageCycles / uint64(b.K())
	if steps == 0 {
		steps = 1
	}
	for i := uint64(0); i < steps; i++ {
		b.StepTimed(&st)
	}
	res.Stages = st.Fractions()
	return res, nil
}

// MeasureAll measures every named benchmark, plus an SMT configuration
// when smt is set, plus batched lockstep rows for each width in
// opts.BatchKs.
func MeasureAll(benches []string, smt bool, opts Options) (*Report, error) {
	if len(benches) == 0 {
		return nil, fmt.Errorf("perf: no benchmarks to measure")
	}
	rep := &Report{
		Schema:     Schema,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, b := range benches {
		r, err := MeasureKernel(b, opts)
		if err != nil {
			return nil, err
		}
		rep.Results = append(rep.Results, r)
	}
	if smt {
		smtOpts := opts
		smtOpts.SMT = true
		r, err := MeasureKernel(benches[0], smtOpts)
		if err != nil {
			return nil, err
		}
		rep.Results = append(rep.Results, r)
	}
	for _, b := range benches {
		for _, k := range opts.BatchKs {
			r, err := MeasureBatchKernel(b, k, opts)
			if err != nil {
				return nil, err
			}
			rep.Results = append(rep.Results, r)
		}
	}
	rep.computeBatchSpeedup()
	return rep, nil
}

// computeBatchSpeedup fills SpeedupBatch: the geometric-mean aggregate
// kcycles/sec ratio of every BatchK > 1 row over the BatchK = 1 row of
// the same benchmark.
func (r *Report) computeBatchSpeedup() {
	r.SpeedupBatch = 0
	base := map[string]float64{} // benchmark name -> K=1 rate
	for _, res := range r.Results {
		if res.BatchK == 1 {
			base[strings.TrimSuffix(res.Name, "/batch=1")] = res.KCyclesPerSec
		}
	}
	logSum, n := 0.0, 0
	for _, res := range r.Results {
		if res.BatchK <= 1 {
			continue
		}
		bench, _, ok := strings.Cut(res.Name, "/batch=")
		if !ok {
			continue
		}
		b := base[bench]
		if b <= 0 || res.KCyclesPerSec <= 0 {
			continue
		}
		logSum += math.Log(res.KCyclesPerSec / b)
		n++
	}
	if n > 0 {
		r.SpeedupBatch = math.Exp(logSum / float64(n))
	}
}

// WriteJSON renders the report with stable indentation.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

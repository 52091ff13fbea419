// Package paco is a library reproduction of "PaCo: Probability-based Path
// Confidence Prediction" (Malik, Agarwal, Dhar, Frank; UIUC CRHC-07-08 /
// HPCA 2008).
//
// A path confidence estimate is the probability that a processor's front
// end is currently fetching correct-path instructions. PaCo computes it
// directly: the enhanced-JRS confidence table stratifies branches by their
// miss distance counter (MDC) value, a Mispredict Rate Table measures each
// bucket's mispredict rate online, a periodic log circuit (integer
// Mitchell approximation) turns bucket rates into 12-bit encoded
// probabilities, and a running integer sum over all in-flight branches is
// the encoded goodpath probability: P(goodpath) = 2^(-sum/1024).
//
// The package offers three levels of entry:
//
//   - Predictor construction (NewPaCo, NewCountPredictor, ...) for
//     embedding path confidence estimation in your own pipeline model via
//     the small Estimator interface.
//   - Simulation (NewMachine, Benchmark) for running the bundled
//     out-of-order core on the synthetic SPEC2000-INT-like workloads.
//   - Experiments (RunExperiment, Experiments) for regenerating every
//     table and figure of the paper's evaluation.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for measured
// results versus the paper's.
package paco

import (
	"context"
	"io"

	"paco/internal/bitutil"
	"paco/internal/campaign"
	"paco/internal/confidence"
	"paco/internal/core"
	"paco/internal/cpu"
	"paco/internal/experiments"
	"paco/internal/gating"
	"paco/internal/perf"
	"paco/internal/scenario"
	"paco/internal/server"
	"paco/internal/session"
	"paco/internal/smt"
	"paco/internal/version"
	"paco/internal/workload"
)

// Re-exported core types: the estimator lifecycle interface and the PaCo
// predictor family. See the internal/core package documentation for the
// event protocol (fetch -> resolve/squash -> retire, plus per-cycle Tick).
type (
	// Estimator is the path confidence lifecycle interface.
	Estimator = core.Estimator
	// BranchEvent describes one control-flow instruction to an Estimator.
	BranchEvent = core.BranchEvent
	// Contribution is the token returned at fetch and presented at
	// resolve or squash.
	Contribution = core.Contribution
	// PaCo is the paper's probability-based path confidence predictor.
	PaCo = core.PaCo
	// PaCoConfig parameterizes a PaCo estimator.
	PaCoConfig = core.PaCoConfig
	// CountPredictor is the conventional threshold-and-count baseline.
	CountPredictor = core.CountPredictor
	// StaticMRT and PerBranchMRT are the Appendix A variants.
	StaticMRT    = core.StaticMRT
	PerBranchMRT = core.PerBranchMRT
	// Probabilistic is implemented by the PaCo family (encoded sum plus
	// decoded goodpath probability).
	Probabilistic = core.Probabilistic
)

// NewPaCo builds the paper's predictor; a zero config selects the paper's
// parameters (200k-cycle refresh, generic cold-start profile).
func NewPaCo(cfg PaCoConfig) *PaCo { return core.NewPaCo(cfg) }

// NewCountPredictor builds the threshold-and-count baseline (the paper's
// conventional best uses threshold 3).
func NewCountPredictor(threshold uint32) *CountPredictor {
	return core.NewCountPredictor(threshold)
}

// EncodeProbThreshold converts a target goodpath probability into the
// encoded threshold applications compare PaCo's sum against (done once;
// e.g. gating at 10% uses a single integer compare thereafter).
func EncodeProbThreshold(p float64) int64 { return bitutil.EncodeProbThreshold(p) }

// DecodeProb converts an encoded sum back into a probability (measurement
// only; hardware never needs it).
func DecodeProb(sum int64) float64 { return bitutil.DecodeProb(sum) }

// MDCBuckets is the number of JRS miss-distance-counter buckets (16).
const MDCBuckets = confidence.NumBuckets

// Machine is the bundled cycle-level out-of-order core.
type Machine = cpu.Core

// MachineConfig sizes a Machine.
type MachineConfig = cpu.Config

// DefaultMachineConfig is the paper's Table 6 single-thread machine;
// SMTMachineConfig is the Table 11 two-thread machine.
func DefaultMachineConfig() MachineConfig { return cpu.DefaultConfig() }

// SMTMachineConfig returns the paper's Table 11 8-wide SMT machine.
func SMTMachineConfig() MachineConfig { return cpu.SMTConfig() }

// NewMachine builds a simulated core; attach workloads with
// (*Machine).AddThread and estimators per thread.
func NewMachine(cfg MachineConfig) (*Machine, error) { return cpu.New(cfg) }

// Workload is a synthetic benchmark model.
type Workload = workload.Spec

// Benchmark returns the named SPEC2000-INT-like benchmark model; see
// BenchmarkNames for the 12 names.
func Benchmark(name string) (*Workload, error) { return workload.NewBenchmark(name) }

// BenchmarkNames lists the bundled benchmark models in the paper's order.
func BenchmarkNames() []string { return append([]string(nil), workload.BenchmarkNames...) }

// Gate is a pipeline-gating policy; NewCountGate and NewProbGate construct
// the paper's two schemes.
type Gate = gating.Gate

// NewCountGate gates fetch while >= gateCount unresolved low-confidence
// branches are outstanding (conventional scheme).
func NewCountGate(threshold uint32, gateCount int) Gate {
	return gating.NewCountGate(threshold, gateCount)
}

// NewProbGate gates fetch while PaCo's goodpath probability is below
// target (the paper gates at 20% for its headline result).
func NewProbGate(target float64, refreshPeriod uint64) Gate {
	return gating.NewProbGate(target, refreshPeriod)
}

// SMT fetch policies (paper Section 5.2).
type (
	// FetchPolicy allocates per-cycle fetch bandwidth among SMT threads.
	FetchPolicy = smt.Policy
	// ICountPolicy is Tullsen's ICOUNT.
	ICountPolicy = smt.ICount
	// ConfCountPolicy prioritizes by unresolved low-confidence branch
	// count (Luo et al.).
	ConfCountPolicy = smt.ConfCount
	// PaCoFetchPolicy prioritizes by PaCo goodpath probability.
	PaCoFetchPolicy = smt.PaCoPolicy
)

// ExperimentConfig scales the paper-reproduction experiments.
type ExperimentConfig = experiments.Config

// DefaultExperimentConfig is the full-scale configuration;
// QuickExperimentConfig is small enough for CI.
func DefaultExperimentConfig() ExperimentConfig { return experiments.Default() }

// QuickExperimentConfig returns a test-sized experiment configuration.
func QuickExperimentConfig() ExperimentConfig { return experiments.Quick() }

// Experiments lists the reproducible table/figure ids (fig2, fig3a, fig3b,
// table7, fig8, fig9, fig10, fig12, tableA1).
func Experiments() []string { return experiments.Names() }

// RunExperiment regenerates one paper table/figure, writing its report to
// w.
func RunExperiment(name string, cfg ExperimentConfig, w io.Writer) error {
	return experiments.Run(name, cfg, w)
}

// Campaign engine (see internal/campaign and DESIGN.md): independent
// simulation jobs shard across a bounded worker pool with panic
// recovery, cancellation, and progress callbacks, producing structured
// results that serialize to JSON/CSV and merge across shards. For a
// fixed configuration, results are identical at any worker count.
type (
	// CampaignJob describes one independent simulation run.
	CampaignJob = campaign.Job
	// CampaignSetup constructs a job's per-run hooks on the worker
	// goroutine.
	CampaignSetup = campaign.Setup
	// CampaignHooks attaches estimators, a gate, and probes to one run.
	CampaignHooks = campaign.Hooks
	// CampaignRunner executes campaigns with progress reporting.
	CampaignRunner = campaign.Runner
	// CampaignResult is the structured record one job produces.
	CampaignResult = campaign.Result
	// CampaignSummary aggregates a campaign's results.
	CampaignSummary = campaign.Summary
)

// RunCampaign executes jobs across a worker pool (workers <= 0 selects
// GOMAXPROCS) and returns one result per job, in job order.
func RunCampaign(ctx context.Context, workers int, jobs []CampaignJob) ([]CampaignResult, error) {
	return campaign.Run(ctx, workers, jobs)
}

// MergeCampaignResults recombines result shards into job order.
func MergeCampaignResults(shards ...[]CampaignResult) []CampaignResult {
	return campaign.Merge(shards...)
}

// SummarizeCampaign folds results into aggregate counters.
func SummarizeCampaign(results []CampaignResult) CampaignSummary {
	return campaign.Summarize(results)
}

// WriteCampaignJSON and ReadCampaignJSON serialize campaign results for
// cross-process sharding; WriteCampaignCSV emits them for plotting.
func WriteCampaignJSON(w io.Writer, results []CampaignResult) error {
	return campaign.WriteJSON(w, results)
}

func ReadCampaignJSON(r io.Reader) ([]CampaignResult, error) {
	return campaign.ReadJSON(r)
}

func WriteCampaignCSV(w io.Writer, results []CampaignResult) error {
	return campaign.WriteCSV(w, results)
}

// Kernel throughput harness (see internal/perf and EXPERIMENTS.md):
// measures how fast the simulator simulates — simulated kcycles per wall
// second, allocations per cycle, per-stage breakdown — producing the
// BENCH_kernel.json baseline artifact.
type (
	// BenchOptions configures one kernel measurement.
	BenchOptions = perf.Options
	// BenchResult is one measured kernel configuration.
	BenchResult = perf.KernelResult
	// BenchReport is the full paco-bench/v1 artifact.
	BenchReport = perf.Report
)

// MeasureKernel measures simulator throughput on one benchmark workload.
func MeasureKernel(benchmark string, opts BenchOptions) (BenchResult, error) {
	return perf.MeasureKernel(benchmark, opts)
}

// MeasureKernels measures several benchmarks (plus an SMT configuration
// when smt is set) into one report.
func MeasureKernels(benchmarks []string, smt bool, opts BenchOptions) (*BenchReport, error) {
	return perf.MeasureAll(benchmarks, smt, opts)
}

// BenchComparison is the verdict of CompareBenchReports — the
// perf-regression gate behind `paco-bench compare`.
type BenchComparison = perf.Comparison

// CompareBenchReports diffs a current kernel report against a baseline:
// any configuration whose kcycles/sec fell more than tolerance (a
// fraction, e.g. 0.15) is reported as a regression, annotated with the
// pipeline stage whose cost fraction grew the most.
func CompareBenchReports(baseline, current *BenchReport, tolerance float64) *BenchComparison {
	return perf.CompareReports(baseline, current, tolerance)
}

// Sweep grids (see internal/campaign): the declarative, serializable
// description of a configuration sweep — the cross product of
// benchmarks, refresh periods, machine widths, and gating schemes —
// shared by cmd/paco-campaign's flags and paco-serve's POST /v1/jobs
// body. A normalized grid canonicalizes to stable JSON, which is what
// the service's content-addressed cache hashes.
type CampaignGrid = campaign.Grid

// CampaignSnapshot is a point-in-time view of a running campaign's
// queued/running/done job counts (see (*CampaignRunner).Snapshot).
type CampaignSnapshot = campaign.Snapshot

// CampaignShard is one contiguous slice of a grid's cell space — the
// self-contained, content-addressed unit of work the distributed
// federation leases to workers (see CampaignGrid.Shards and DESIGN.md
// §7). Shard.Run executes the slice at a given worker count and batch
// width; running every shard of a plan and merging reproduces the
// unsplit campaign byte for byte.
type CampaignShard = campaign.Shard

// Declarative workload scenarios (see internal/scenario): a versioned
// JSON document — a named workload family with parameters, or a bundled
// benchmark, reshaped by composition operators — that compiles to a
// Workload. Scenarios ride every sweep surface: CampaignGrid.Scenarios,
// the paco-campaign/-serve job specs, and paco-trace provenance.
type (
	// Scenario is one declarative workload description.
	Scenario = scenario.Scenario
	// ScenarioOp is one composition operator (mix, splice, phase_morph,
	// override).
	ScenarioOp = scenario.Op
	// ScenarioFamily is a named, parameterized workload family.
	ScenarioFamily = scenario.Family
	// ScenarioFuzzSpec names a deterministic batch of fuzzed scenarios.
	ScenarioFuzzSpec = scenario.FuzzSpec
)

// ScenarioFamilies returns the registered workload families in name
// order.
func ScenarioFamilies() []*ScenarioFamily { return scenario.Families() }

// CompileScenario normalizes a scenario document and compiles it to a
// runnable workload spec.
func CompileScenario(sc Scenario) (*Workload, error) { return sc.Compile() }

// FuzzScenarios deterministically samples n valid scenarios from the
// declared family parameter ranges: the same seed always returns the
// same documents, and each compiles to a byte-identical instruction
// stream.
func FuzzScenarios(seed uint64, n int) ([]Scenario, error) {
	return scenario.FuzzSpec{Seed: seed, Count: n}.Generate()
}

// Simulation service (see internal/server and DESIGN.md §6): an
// HTTP/JSON front end over the campaign engine with a content-addressed
// result cache — SHA-256 of the canonicalized job spec addresses the
// stored result, so repeated identical configurations never
// re-simulate. cmd/paco-serve is the production entry point; embedders
// mount (*SimServer).Handler() themselves.
type (
	// SimServer executes simulation jobs behind an HTTP API.
	SimServer = server.Server
	// SimServerConfig sizes a SimServer.
	SimServerConfig = server.Config
	// ResultCache is the content-addressed LRU result store.
	ResultCache = server.Cache
	// ResultCacheStats are the cache's hit/miss/occupancy counters.
	ResultCacheStats = server.CacheStats
)

// NewSimServer builds a simulation service; call Start before serving
// its Handler and Close to drain it.
func NewSimServer(cfg SimServerConfig) (*SimServer, error) { return server.New(cfg) }

// NewResultCache builds a standalone content-addressed result cache
// with the given byte budget (<= 0 selects the default) and optional
// persistence directory.
func NewResultCache(budget int64, dir string) (*ResultCache, error) {
	return server.NewCache(budget, dir)
}

// Distributed federation (see DESIGN.md §7): a SimServer configured with
// Shards > 1 coordinates sweeps across remote workers over a lease
// protocol; FederationWorker is the worker loop cmd/paco-serve runs in
// -coordinator mode. Determinism makes the distribution provable: the
// merged report is asserted byte-identical to a single-process run at
// any worker count, interleaving, or failure pattern
// (internal/server/servertest).
type (
	// FederationWorker leases shards from a coordinator, executes them
	// locally, and posts globally indexed results back.
	FederationWorker = server.Worker
	// FederationWorkerConfig configures a FederationWorker.
	FederationWorkerConfig = server.WorkerConfig
	// FederationStats snapshots a coordinator: pending/leased shards,
	// retries, and per-worker liveness.
	FederationStats = server.FederationStats
)

// NewFederationWorker builds a worker for the given coordinator; call
// Run to start leasing.
func NewFederationWorker(cfg FederationWorkerConfig) (*FederationWorker, error) {
	return server.NewWorker(cfg)
}

// Live estimator sessions (see internal/session and DESIGN.md §6b):
// a session scores an event stream as it arrives — branch events fan
// out to a configured estimator set and rolling scores read back at
// any point. paco-serve hosts sessions over HTTP (/v1/sessions, with
// sharding, backpressure, and idle eviction); this embedded surface is
// the same engine applied synchronously. Closing a session yields the
// identical scores document that streaming the same events through the
// service produces.
type (
	// Session is one live estimator set folding over an event stream.
	Session = session.Session
	// SessionConfig names the estimator set (kinds paco, static,
	// perbranch, count); the zero value selects one default PaCo.
	SessionConfig = session.Spec
	// SessionEstimator selects one estimator in a SessionConfig.
	SessionEstimator = session.EstimatorSpec
	// SessionScores is a point-in-time score snapshot.
	SessionScores = session.Scores
)

// OpenSession builds a live estimator session from its configuration.
// Feed it events with IngestNDJSON (or Apply with decoded trace
// events), read Scores at any point, and Close to squash in-flight
// branches and take the final snapshot.
func OpenSession(cfg SessionConfig) (*Session, error) { return session.New(cfg) }

// CanonicalJSON rewrites a JSON document into the canonical form the
// result cache hashes: object keys sorted, whitespace removed, numbers
// normalized.
func CanonicalJSON(raw []byte) ([]byte, error) { return server.CanonicalJSON(raw) }

// ContentKey computes the SHA-256 content address over the given parts.
func ContentKey(parts ...[]byte) string { return server.Key(parts...) }

// BuildInfo is the build stamp every paco binary shares (see the
// -version flag on each cmd/* binary).
type BuildInfo = version.Info

// Version returns the running build's stamp.
func Version() BuildInfo { return version.Get() }

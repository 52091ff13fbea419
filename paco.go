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
// The package offers four levels of entry:
//
//   - Predictor construction (NewPaCo, NewCountPredictor, ...) for
//     embedding path confidence estimation in your own pipeline model via
//     the small Estimator interface.
//   - Simulation (NewMachine, Benchmark) for running the bundled
//     out-of-order core on the synthetic SPEC2000-INT-like workloads.
//   - Experiments (RunExperiment, Experiments) for regenerating every
//     table and figure of the paper's evaluation.
//   - Live sessions (OpenSession) for scoring a branch event stream as it
//     arrives, with the same engine paco-serve hosts over HTTP.
//
// The campaign engine, simulation service, federation, kernel benchmark
// and scenario compiler behind the cmd/* binaries are internal packages,
// not part of this API.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for measured
// results versus the paper's.
package paco

import (
	"io"

	"paco/internal/bitutil"
	"paco/internal/confidence"
	"paco/internal/core"
	"paco/internal/cpu"
	"paco/internal/experiments"
	"paco/internal/gating"
	"paco/internal/session"
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

// ExperimentConfig scales the paper-reproduction experiments.
type ExperimentConfig = experiments.Config

// DefaultExperimentConfig is the full-scale configuration;
// QuickExperimentConfig is small enough for CI.
func DefaultExperimentConfig() ExperimentConfig { return experiments.Default() }

// QuickExperimentConfig returns a test-sized experiment configuration.
func QuickExperimentConfig() ExperimentConfig { return experiments.Quick() }

// Experiments lists the reproducible table/figure ids, including the
// ablations beyond the paper's own figures; `paco list` prints the same
// list.
func Experiments() []string { return experiments.Names() }

// RunExperiment regenerates one paper table/figure, writing its report to
// w.
func RunExperiment(name string, cfg ExperimentConfig, w io.Writer) error {
	return experiments.Run(name, cfg, w)
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

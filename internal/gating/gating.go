// Package gating implements pipeline gating (Manne et al.; paper Section
// 5.1): instruction fetch is suppressed while the processor is judged
// likely to be on the wrong path. Two judges are provided — the
// conventional gate-count over unresolved low-confidence branches, and
// PaCo's target goodpath probability, converted once into an encoded
// threshold so the runtime comparison is a single integer compare.
package gating

import (
	"fmt"

	"paco/internal/bitutil"
	"paco/internal/core"
)

// Gate is a fetch-gating policy bound to a path confidence estimator.
type Gate interface {
	// Name labels the gate in tables.
	Name() string
	// Estimator returns the estimator that must observe the gated thread.
	Estimator() core.Estimator
	// ShouldGate reports whether fetch should be suppressed this cycle.
	ShouldGate() bool
}

// CountGate is the conventional scheme: gate while the number of
// unresolved low-confidence branches is at or above GateCount.
type CountGate struct {
	threshold uint32
	gateCount int
	cnt       *core.CountPredictor
}

// NewCountGate builds a counter gate with the given JRS confidence
// threshold and gate-count.
func NewCountGate(threshold uint32, gateCount int) *CountGate {
	return &CountGate{
		threshold: threshold,
		gateCount: gateCount,
		cnt:       core.NewCountPredictor(threshold),
	}
}

// Name implements Gate.
func (g *CountGate) Name() string {
	return fmt.Sprintf("JRS-thr%d-gate%d", g.threshold, g.gateCount)
}

// Estimator implements Gate.
func (g *CountGate) Estimator() core.Estimator { return g.cnt }

// ShouldGate implements Gate.
func (g *CountGate) ShouldGate() bool { return g.cnt.Count() >= g.gateCount }

// ProbGate is PaCo's scheme: gate while the predicted goodpath probability
// is below a target. The target is encoded once (Section 3.2's
// "reconverting" discussion); at runtime the gate compares the running
// integer sum against it.
type ProbGate struct {
	target    float64
	threshold int64
	paco      *core.PaCo
}

// NewProbGate builds a PaCo gate with the given target goodpath
// probability (e.g. 0.20 to gate below 20%) and MRT refresh period
// (0 = default).
func NewProbGate(target float64, refreshPeriod uint64) *ProbGate {
	return &ProbGate{
		target:    target,
		threshold: bitutil.EncodeProbThreshold(target),
		paco:      core.NewPaCo(core.PaCoConfig{RefreshPeriod: refreshPeriod}),
	}
}

// Name implements Gate.
func (g *ProbGate) Name() string { return fmt.Sprintf("PaCo-%.0f%%", g.target*100) }

// Estimator implements Gate.
func (g *ProbGate) Estimator() core.Estimator { return g.paco }

// ShouldGate implements Gate.
func (g *ProbGate) ShouldGate() bool { return g.paco.EncodedSum() > g.threshold }

// PaCo exposes the underlying estimator (diagnostics).
func (g *ProbGate) PaCo() *core.PaCo { return g.paco }

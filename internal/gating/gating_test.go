package gating

import (
	"strings"
	"testing"

	"paco/internal/core"
)

func TestCountGate(t *testing.T) {
	g := NewCountGate(3, 2)
	if g.ShouldGate() {
		t.Fatal("empty machine gated")
	}
	cnt := g.Estimator().(*core.CountPredictor)
	ev := core.BranchEvent{MDC: 0, Conditional: true}
	c1 := cnt.BranchFetched(ev)
	if g.ShouldGate() {
		t.Fatal("gated below gate-count")
	}
	c2 := cnt.BranchFetched(ev)
	if !g.ShouldGate() {
		t.Fatal("did not gate at gate-count")
	}
	cnt.BranchResolved(c1)
	cnt.BranchResolved(c2)
	if g.ShouldGate() {
		t.Fatal("gated after branches resolved")
	}
	if !strings.Contains(g.Name(), "thr3") || !strings.Contains(g.Name(), "gate2") {
		t.Fatalf("name %q", g.Name())
	}
}

func TestCountGateIgnoresHighConfidence(t *testing.T) {
	g := NewCountGate(3, 1)
	cnt := g.Estimator().(*core.CountPredictor)
	cnt.BranchFetched(core.BranchEvent{MDC: 9, Conditional: true})
	if g.ShouldGate() {
		t.Fatal("high-confidence branch triggered the gate")
	}
}

func TestProbGate(t *testing.T) {
	g := NewProbGate(0.20, 1000)
	p := g.PaCo()
	if g.ShouldGate() {
		t.Fatal("certain-goodpath machine gated")
	}
	// Accumulate enough encoded probability to cross below 20%.
	var contribs []core.Contribution
	for i := 0; i < 50 && !g.ShouldGate(); i++ {
		contribs = append(contribs, p.BranchFetched(core.BranchEvent{MDC: 0, Conditional: true}))
	}
	if !g.ShouldGate() {
		t.Fatal("gate never engaged as confidence collapsed")
	}
	if p.GoodpathProb() >= 0.20 {
		t.Fatalf("gated while decoded probability %.3f >= target", p.GoodpathProb())
	}
	for _, c := range contribs {
		p.BranchResolved(c)
	}
	if g.ShouldGate() {
		t.Fatal("gate stuck after branches resolved")
	}
	if !strings.Contains(g.Name(), "20%") {
		t.Fatalf("name %q", g.Name())
	}
}

func TestProbGateThresholdMonotone(t *testing.T) {
	// A stricter (higher) target must gate no later than a looser one.
	loose := NewProbGate(0.05, 0)
	strict := NewProbGate(0.50, 0)
	ev := core.BranchEvent{MDC: 0, Conditional: true}
	for i := 0; i < 100; i++ {
		loose.PaCo().BranchFetched(ev)
		strict.PaCo().BranchFetched(ev)
		if loose.ShouldGate() && !strict.ShouldGate() {
			t.Fatal("loose gate engaged before strict gate")
		}
	}
	if !loose.ShouldGate() {
		t.Fatal("even the loose gate should engage eventually")
	}
}

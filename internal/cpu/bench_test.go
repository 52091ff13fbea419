package cpu

import (
	"testing"

	"paco/internal/core"
	"paco/internal/workload"
)

// benchCore builds a single-thread core on the given benchmark with one
// PaCo estimator attached — the configuration every accuracy experiment
// runs, so its per-cycle cost is the kernel hot path.
func benchCore(tb testing.TB, bench string) *Core {
	tb.Helper()
	spec, err := workload.NewBenchmark(bench)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := New(DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := c.AddThread(spec, []core.Estimator{core.NewPaCo(core.PaCoConfig{})}); err != nil {
		tb.Fatal(err)
	}
	return c
}

// BenchmarkCoreTick measures the steady-state per-cycle cost of the
// simulation kernel: ns/op is one call of Core.Step after warmup.
func BenchmarkCoreTick(b *testing.B) {
	c := benchCore(b, "gzip")
	c.RunCycles(50_000) // warm caches, predictor, ready structures
	b.ReportAllocs()
	b.ResetTimer()
	c.RunCycles(uint64(b.N))
}

// BenchmarkCoreTickSMT measures the same with two hardware contexts (the
// SMT experiments' configuration).
func BenchmarkCoreTickSMT(b *testing.B) {
	spec2, err := workload.NewBenchmark("twolf")
	if err != nil {
		b.Fatal(err)
	}
	c := benchCore(b, "gzip")
	if _, err := c.AddThread(spec2, []core.Estimator{core.NewPaCo(core.PaCoConfig{})}); err != nil {
		b.Fatal(err)
	}
	c.RunCycles(50_000)
	b.ReportAllocs()
	b.ResetTimer()
	c.RunCycles(uint64(b.N))
}

// BenchmarkCoreNew measures building one default core — its B/op is the
// predictor, JRS, cache and BTB state every simulated cell holds.
func BenchmarkCoreNew(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		if _, err := New(DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

package cpu

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"paco/internal/core"
	"paco/internal/gating"
	"paco/internal/workload"
)

// TestTickZeroAllocs pins the steady-state cycle loop to zero heap
// allocations: after warmup has grown the wheel buckets, ready queue, and
// waiter arenas to their high-water marks, Core.tick must not allocate.
func TestTickZeroAllocs(t *testing.T) {
	c := benchCore(t, "gzip")
	c.RunCycles(300_000) // past all structure growth and cache warmup
	allocs := testing.AllocsPerRun(20_000, func() {
		c.Step()
	})
	if allocs != 0 {
		t.Fatalf("Core.tick allocates %.2f times per cycle in steady state, want 0", allocs)
	}
}

// TestTickZeroAllocsSMT repeats the check with two hardware contexts and
// the SMT machine configuration.
func TestTickZeroAllocsSMT(t *testing.T) {
	spec1, err := workload.NewBenchmark("gzip")
	if err != nil {
		t.Fatal(err)
	}
	spec2, err := workload.NewBenchmark("twolf")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(SMTConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []*workload.Spec{spec1, spec2} {
		if _, err := c.AddThread(spec, []core.Estimator{core.NewPaCo(core.PaCoConfig{})}); err != nil {
			t.Fatal(err)
		}
	}
	c.RunCycles(300_000)
	allocs := testing.AllocsPerRun(20_000, func() {
		c.Step()
	})
	if allocs != 0 {
		t.Fatalf("SMT Core.tick allocates %.2f times per cycle in steady state, want 0", allocs)
	}
}

// TestAddThreadEstimatorLimit pins the MaxEstimators validation: one more
// estimator than robPayload.contribs can hold must be rejected with a
// descriptive error, not mis-indexed.
func TestAddThreadEstimatorLimit(t *testing.T) {
	spec, err := workload.NewBenchmark("gzip")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ests := make([]core.Estimator, MaxEstimators+1)
	for i := range ests {
		ests[i] = core.NewPaCo(core.PaCoConfig{})
	}
	if _, err := c.AddThread(spec, ests); err == nil {
		t.Fatalf("AddThread accepted %d estimators, want error at > %d", len(ests), MaxEstimators)
	} else if !strings.Contains(err.Error(), "estimators") {
		t.Fatalf("AddThread error %q does not mention estimators", err)
	}
	// Exactly MaxEstimators must still be accepted.
	if _, err := c.AddThread(spec, ests[:MaxEstimators]); err != nil {
		t.Fatalf("AddThread rejected %d estimators: %v", MaxEstimators, err)
	}
}

// TestBatchRunZeroAllocs pins the batch run loop: once the lanes'
// structures (and, with two or more lanes, the tape ring) have grown to
// steady state, advancing the batch allocates nothing — per lane, per
// cycle. A one-lane batch runs as a plain Core; the two-lane batch
// holds both batched lane kinds, a shared passive core and a gated core.
func TestBatchRunZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shared bool
	}{{"one-lane", false}, {"two-lanes", true}} {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := workload.NewBenchmark("gzip")
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewBatch(spec)
			if err != nil {
				t.Fatal(err)
			}
			if tc.shared {
				shared, err := New(DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				if _, err := b.Attach(shared, []core.Estimator{
					core.NewPaCo(core.PaCoConfig{RefreshPeriod: 100_000}),
					core.NewPaCo(core.PaCoConfig{RefreshPeriod: 200_000}),
				}); err != nil {
					t.Fatal(err)
				}
			}
			gated, err := New(DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			g := gating.NewProbGate(0.3, 200_000)
			if _, err := b.Attach(gated, []core.Estimator{g.PaCo()}); err != nil {
				t.Fatal(err)
			}
			gated.SetGate(g.ShouldGate)

			b.Run(100_000) // past ring, wheel, ready-queue, and arena growth
			allocs := testing.AllocsPerRun(20, func() {
				b.Run(1000)
			})
			if allocs != 0 {
				t.Fatalf("Batch.Run allocates %.2f times per 1000-instruction quantum in steady state, want 0", allocs)
			}
		})
	}
}

// maxCoreBytes bounds the heap one default core allocates at construction.
// The predictor (96 KiB of 2-bit counters), the JRS table (8 KiB of 4-bit
// MDCs), the caches (76 KiB of 16-byte lines) and the BTB (48 KiB) store
// 228 KiB of state; with the rest of the core, New allocates 247,761
// bytes.
const maxCoreBytes = 256 << 10

// TestCoreNewFootprint pins the construction footprint of New(DefaultConfig())
// under maxCoreBytes, so a counter table that regrows past its packed
// width, a cache line or BTB entry that regrows a flag, or a per-set
// allocation, fails here rather than in a sweep's resident memory.
func TestCoreNewFootprint(t *testing.T) {
	var before, after runtime.MemStats
	best := uint64(math.MaxUint64)
	// Take the smallest of a few constructions: TotalAlloc is
	// process-wide, and only ever overcounts one core's bytes.
	for range 3 {
		runtime.ReadMemStats(&before)
		c, err := New(DefaultConfig())
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(c)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("New(DefaultConfig()) allocates %d bytes", best)
	if best > maxCoreBytes {
		t.Fatalf("New(DefaultConfig()) allocates %d bytes, want <= %d", best, maxCoreBytes)
	}
}

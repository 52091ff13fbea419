package cpu

import (
	"testing"

	"paco/internal/branch"
	"paco/internal/cache"
	"paco/internal/workload"
)

// Test-only views of a core's and a batch's internal state.

// Memory exposes the cache hierarchy.
func (c *Core) Memory() *cache.Hierarchy { return c.mem }

// BTB exposes the branch target buffer.
func (c *Core) BTB() *branch.BTB { return c.btb }

// Tape returns the shared stream.
func (b *Batch) Tape() *workload.Tape { return b.tape }

// benchmark returns the named benchmark model, failing tb if there is none.
func benchmark(tb testing.TB, name string) *workload.Spec {
	tb.Helper()
	spec, err := workload.NewBenchmark(name)
	if err != nil {
		tb.Fatal(err)
	}
	return spec
}

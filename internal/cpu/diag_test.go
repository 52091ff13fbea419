package cpu

import (
	"testing"

	"paco/internal/workload"
)

// TestDiagClassRates prints per-branch-class mispredict rates to verify the
// workload generator classes behave as designed (biased ~1.5%, loop ~1/trip,
// pattern/correlated ~0 after warmup, noisy ~eps, random ~50%).
func TestDiagClassRates(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic sweep")
	}
	for _, name := range workload.BenchmarkNames {
		spec := benchmark(t, name)
		c, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		tid, err := c.AddThread(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Count retire-time mispredicts by static branch.
		type agg struct{ exec, misp uint64 }
		byID := map[int]*agg{}
		c.probeRetire = func(staticID int, correct bool) {
			a := byID[staticID]
			if a == nil {
				a = &agg{}
				byID[staticID] = a
			}
			a.exec++
			if !correct {
				a.misp++
			}
		}
		c.Run(400_000, 0) // warmup
		byID = map[int]*agg{}
		c.ResetStats()
		c.Run(1_000_000, 0)
		classes := map[workload.BranchClass]*agg{}
		for _, bs := range c.Walker(tid).BranchStats() {
			a := byID[bs.ID]
			if a == nil {
				continue
			}
			ca := classes[bs.Class]
			if ca == nil {
				ca = &agg{}
				classes[bs.Class] = ca
			}
			ca.exec += a.exec
			ca.misp += a.misp
		}
		st := c.ThreadStats(tid)
		t.Logf("%s: IPC=%.2f condMR=%.2f%% ctrlMR=%.2f%% condRetired=%d", name, c.IPC(tid), st.CondMispredictRate(), st.CtrlMispredictRate(), st.CondRetired)
		for cls, a := range classes {
			t.Logf("  %-10s exec=%-8d mispredict=%.2f%%", cls, a.exec, 100*float64(a.misp)/float64(a.exec))
		}
	}
}

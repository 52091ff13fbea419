package cpu

import (
	"testing"

	"paco/internal/core"
	"paco/internal/workload"
)

// TestSmokeAllBenchmarks runs every benchmark briefly and checks the basic
// machine invariants hold: instructions retire, IPC is sane, branches
// mispredict at plausible rates, and badpath work exists.
func TestSmokeAllBenchmarks(t *testing.T) {
	for _, name := range workload.BenchmarkNames {
		name := name
		t.Run(name, func(t *testing.T) {
			spec := benchmark(t, name)
			c, err := New(DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			paco := core.NewPaCo(core.PaCoConfig{RefreshPeriod: 20_000})
			cnt := core.NewCountPredictor(3)
			tid, err := c.AddThread(spec, []core.Estimator{paco, cnt})
			if err != nil {
				t.Fatal(err)
			}
			const n = 200_000
			cycles := c.Run(n, 0)
			st := c.ThreadStats(tid)
			if st.RetiredGood < n {
				t.Fatalf("retired %d < %d", st.RetiredGood, n)
			}
			ipc := c.IPC(tid)
			if ipc <= 0.1 || ipc > 4.0 {
				t.Errorf("implausible IPC %.3f (cycles=%d)", ipc, cycles)
			}
			if st.CondRetired == 0 {
				t.Fatal("no conditional branches retired")
			}
			rate := st.CondMispredictRate()
			t.Logf("%s: IPC=%.3f condMR=%.2f%% ctrlMR=%.2f%% fetchedBad=%d execBad=%d paco.P=%.3f",
				name, ipc, rate, st.CtrlMispredictRate(), st.FetchedBad, st.ExecutedBad, paco.GoodpathProb())
			if rate <= 0 || rate > 60 {
				t.Errorf("implausible conditional mispredict rate %.2f%%", rate)
			}
			if name != "perlbmk" && name != "vortex" && st.FetchedBad == 0 {
				t.Errorf("no badpath instructions fetched")
			}
		})
	}
}

package cpu

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"paco/internal/cache"
	"paco/internal/confidence"
	"paco/internal/core"
	"paco/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/kernel_golden.json from the current kernel")

const goldenPath = "testdata/kernel_golden.json"

// goldenInstrs is the goodpath instruction count each golden run retires:
// long enough to warm the predictor, JRS, caches and BTB past their cold
// start, short enough to keep the test cheap under -race.
const goldenInstrs = 100_000

// goldenRefresh makes PaCo logarithmize its MRT several times per run, so
// the golden table also pins the JRS MDC stream the MRT is stratified by.
const goldenRefresh = 20_000

// goldenRun is everything one kernel run exposes that a change in
// predictor, confidence, cache or BTB state could move.
type goldenRun struct {
	Cycles     uint64
	Thread     ThreadStats
	Caches     []cache.Stats
	BTBLookups uint64
	BTBHits    uint64
	PaCoSum    int64
	PaCoTable  [confidence.NumBuckets]uint32
}

func runGolden(t *testing.T, bench string) goldenRun {
	t.Helper()
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	paco := core.NewPaCo(core.PaCoConfig{RefreshPeriod: goldenRefresh})
	tid, err := c.AddThread(benchmark(t, bench), []core.Estimator{paco, core.NewCountPredictor(3)})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(goldenInstrs, 0)
	mem := c.Memory()
	lookups, hits := c.BTB().Stats()
	return goldenRun{
		Cycles:     c.Stats().Cycles,
		Thread:     c.ThreadStats(tid),
		Caches:     []cache.Stats{mem.L1I.Stats(), mem.L1D.Stats(), mem.L2.Stats()},
		BTBLookups: lookups,
		BTBHits:    hits,
		PaCoSum:    paco.EncodedSum(),
		PaCoTable:  paco.Table(),
	}
}

// TestKernelGolden pins the default core's output on every benchmark to
// committed bytes, so a change to kernel state layout (counter tables,
// cache and BTB sets) must reproduce the exact same simulation. Run with
// -update to regenerate the file after an intended behaviour change.
func TestKernelGolden(t *testing.T) {
	got := make(map[string]goldenRun, len(workload.BenchmarkNames))
	for _, name := range workload.BenchmarkNames {
		got[name] = runGolden(t, name)
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]goldenRun
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d benchmarks, kernel ran %d", len(want), len(got))
	}
	for _, name := range workload.BenchmarkNames {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: missing from %s", name, goldenPath)
			continue
		}
		if g := got[name]; !reflect.DeepEqual(g, w) {
			t.Errorf("%s: kernel output moved\n got %+v\nwant %+v", name, g, w)
		}
	}
}

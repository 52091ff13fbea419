package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"testing"
	"time"
)

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	for i := 0; i < 6; i++ {
		if a, b := sweepSpec(7, i), sweepSpec(7, i); !bytes.Equal(a, b) {
			t.Fatalf("grid %d: same seed, different specs:\n%s\n%s", i, a, b)
		}
		if a, b := sweepSpec(7, i), sweepSpec(8, i); bytes.Equal(a, b) {
			t.Fatalf("grid %d: seeds 7 and 8 give the same spec %s", i, a)
		}
	}
	a, err := sessionPlan(7, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sessionPlan(7, 8)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sessionPlan(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !bytes.Equal(a[i].Payload, b[i].Payload) || !bytes.Equal(a[i].SpecJSON, b[i].SpecJSON) {
			t.Fatalf("session %d: same seed, different stream", i)
		}
		if bytes.Equal(a[i].Payload, c[i].Payload) {
			t.Fatalf("session %d: seeds 7 and 8 give the same stream", i)
		}
	}
}

// The mix of grid kinds and of session properties is fixed; the seed
// only reorders it.
func TestInputMixIsTheSameAtEverySeed(t *testing.T) {
	mix := func(seed int64) []string {
		var kinds []string
		for i := 0; i < 18; i++ {
			g := sweepGrid(seed, i)
			if g.Fuzz != nil {
				kinds = append(kinds, "fuzz")
			} else {
				kinds = append(kinds, g.Benchmarks...)
			}
		}
		plan, err := sessionPlan(seed, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range plan {
			kinds = append(kinds, fmt.Sprintf("%s/%s/%d", in.contentType(), in.Estimator, in.Chunk))
		}
		sort.Strings(kinds)
		return kinds
	}
	a, b := mix(1), mix(2)
	if len(a) != len(b) {
		t.Fatalf("mix sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeds 1 and 2 give different mixes: %v vs %v", a, b)
		}
	}
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var bj struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var want []named
	for _, m := range endToEnd {
		want = append(want, named{m.name, m.unit})
	}
	if !slices.Equal(bj.EndToEnd, want) {
		t.Errorf("end_to_end: BENCHMARK.json %v, benchmark prints %v", bj.EndToEnd, want)
	}
	want = nil
	for _, m := range perLayer {
		want = append(want, named{m.name, m.unit})
	}
	if !slices.Equal(bj.PerLayer, want) {
		t.Errorf("per_layer: BENCHMARK.json %v, benchmark prints %v", bj.PerLayer, want)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := workloadNames(); !slices.Equal(got, names) {
		t.Errorf("workloads: BENCHMARK.json %v, benchmark has %v", names, got)
	}
}

// Each workload, run briefly, passes its own correctness checks and
// produces every end-to-end metric.
func TestWorkloadSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			p := newPass(3, 500*time.Millisecond, nil)
			if err := workloads[name].run(context.Background(), p); err != nil {
				t.Fatal(err)
			}
			res := endToEndResult(p, 0.01, 1)
			if !res.Correct || p.failed != 0 || len(p.problems) != 0 {
				t.Fatalf("checks failed: %d of %d operations, problems %v", p.failed, p.attempted, p.problems)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Fatalf("got %d metrics, want %d", len(res.Metrics), len(endToEnd))
			}
		})
	}
}

// A traced run measures every per-layer metric.
func TestTracedRunMeasuresEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	defer os.RemoveAll(".bench_build")
	var out bytes.Buffer
	p, res, err := tracedRun(context.Background(), "sessions", 3, time.Second, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("traced run failed its checks: %v", p.problems)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Fatalf("got %d per-layer metrics, want %d", len(res.Metrics), len(perLayer))
	}
}

func TestCoveredCountsOverlapOnce(t *testing.T) {
	iv := [][2]float64{{1, 3}, {2, 4}, {6, 7}, {9, 12}}
	if got := covered(iv, 0, 10); got != 5 {
		t.Fatalf("covered = %v, want 5", got)
	}
}

func TestRateIgnoresOneStalledSlice(t *testing.T) {
	p := newPass(1, time.Second, nil)
	p.window = 10 * time.Second
	for s := 0; s < rateSlices; s++ {
		n := 10
		if s == 3 {
			n = 1 // the host stalled during this slice
		}
		for i := 0; i < n; i++ {
			p.done = append(p.done, completion{at: time.Duration(s)*time.Second + time.Duration(i)*time.Millisecond, units: 1})
		}
	}
	if got := p.rate(); got != 10 {
		t.Fatalf("rate = %v, want 10", got)
	}
}

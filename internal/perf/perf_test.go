package perf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

// quickOpts keeps test runtime in the tens of milliseconds.
func quickOpts() Options {
	return Options{WarmupCycles: 5_000, MeasureCycles: 20_000, StageCycles: 5_000}
}

func TestMeasureKernel(t *testing.T) {
	r, err := MeasureKernel("gzip", quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "gzip" || r.Cycles != 20_000 {
		t.Fatalf("unexpected result header: %+v", r)
	}
	if r.KCyclesPerSec <= 0 || r.WallSeconds <= 0 {
		t.Fatalf("throughput not measured: %+v", r)
	}
	if r.IPC <= 0.1 || r.IPC > 8 {
		t.Fatalf("implausible simulated IPC %.3f", r.IPC)
	}
	var sum float64
	for _, f := range r.Stages {
		if f < 0 || f > 1 {
			t.Fatalf("stage fraction out of range: %v", r.Stages)
		}
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("stage fractions sum to %.6f, want 1", sum)
	}
}

func TestReportRoundTripAndSpeedup(t *testing.T) {
	opts := quickOpts()
	opts.BatchKs = []int{1, 2}
	rep, err := MeasureAll([]string{"gzip"}, false, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != Schema || back.SpeedupBatch != rep.SpeedupBatch || len(back.Results) != len(rep.Results) {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, rep)
	}
}

// TestSpeedupBatchSeesOnlyBatchedSlowdown pins the property CI's kernel
// perf gate relies on: speedup_batch is a ratio of two rows measured in
// one process, so a slowdown that hits every row (a slower host) leaves
// it unchanged, while one that hits only the batched rows moves it.
func TestSpeedupBatchSeesOnlyBatchedSlowdown(t *testing.T) {
	rows := func() []KernelResult {
		return []KernelResult{
			{Name: "gzip", KCyclesPerSec: 900},
			{Name: "gzip/batch=1", BatchK: 1, KCyclesPerSec: 1000},
			{Name: "gzip/batch=8", BatchK: 8, KCyclesPerSec: 1800},
			{Name: "mcf/batch=1", BatchK: 1, KCyclesPerSec: 400},
			{Name: "mcf/batch=8", BatchK: 8, KCyclesPerSec: 800},
		}
	}
	speedup := func(rs []KernelResult) float64 {
		r := &Report{Schema: Schema, Results: rs}
		r.computeBatchSpeedup()
		return r.SpeedupBatch
	}
	base := speedup(rows())
	if want := math.Sqrt(1.8 * 2); math.Abs(base-want) > 1e-12 {
		t.Fatalf("speedup_batch = %v, want %v", base, want)
	}

	host := rows()
	for i := range host {
		host[i].KCyclesPerSec *= 0.37
	}
	if got := speedup(host); math.Abs(got-base) > 1e-12 {
		t.Fatalf("uniform slowdown moved speedup_batch: %v -> %v", base, got)
	}

	batched := rows()
	for i := range batched {
		if batched[i].BatchK > 1 {
			batched[i].KCyclesPerSec *= 0.5
		}
	}
	if got := speedup(batched); math.Abs(got-base/2) > 1e-12 {
		t.Fatalf("batched-only 2x slowdown: speedup_batch %v -> %v, want %v", base, got, base/2)
	}

	// Without a batch=1 row there is no ratio: the field is zero and
	// omitted, so a gate that reads it fails closed.
	var noBase []KernelResult
	for _, r := range rows() {
		if r.BatchK != 1 {
			noBase = append(noBase, r)
		}
	}
	r := &Report{Schema: Schema, Results: noBase}
	r.computeBatchSpeedup()
	if r.SpeedupBatch != 0 {
		t.Fatalf("speedup_batch without a batch=1 row = %v, want 0", r.SpeedupBatch)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &fields); err != nil {
		t.Fatal(err)
	}
	if _, ok := fields["speedup_batch"]; ok {
		t.Fatalf("speedup_batch written without a batch=1 row:\n%s", buf.String())
	}
}

func TestMeasureKernelUnknownBenchmark(t *testing.T) {
	if _, err := MeasureKernel("not-a-benchmark", quickOpts()); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestMeasureBatchKernel(t *testing.T) {
	for _, k := range []int{1, 4} {
		r, err := MeasureBatchKernel("gzip", k, quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("gzip/batch=%d", k); r.Name != want || r.BatchK != k {
			t.Fatalf("unexpected header for K=%d: %+v", k, r)
		}
		if r.KCyclesPerSec <= 0 || r.Instructions == 0 {
			t.Fatalf("K=%d throughput not measured: %+v", k, r)
		}
		// Quota-driven: every distinct core retires the full instruction
		// budget, so aggregate retirement scales with the lane count.
		if r.Instructions < uint64(k)*quickOpts().MeasureCycles {
			t.Fatalf("K=%d retired %d goodpath instructions, want >= %d",
				k, r.Instructions, uint64(k)*quickOpts().MeasureCycles)
		}
		var sum float64
		for _, f := range r.Stages {
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("K=%d stage fractions sum to %.6f, want 1", k, sum)
		}
	}
}

func TestMeasureAllBatchSpeedup(t *testing.T) {
	opts := quickOpts()
	opts.BatchKs = []int{1, 4}
	rep, err := MeasureAll([]string{"gzip"}, false, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 3 { // plain + batch=1 + batch=4
		t.Fatalf("got %d results, want 3: %+v", len(rep.Results), rep.Results)
	}
	if rep.SpeedupBatch <= 0 {
		t.Fatalf("batch speedup not computed: %+v", rep)
	}
	if rep.GOMAXPROCS <= 0 {
		t.Fatalf("GOMAXPROCS not recorded: %+v", rep)
	}
}

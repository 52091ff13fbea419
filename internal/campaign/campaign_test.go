package campaign

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"paco/internal/core"
	"paco/internal/cpu"
	"paco/internal/metrics"
	"paco/internal/obs"
	"paco/internal/workload"
)

// simJobs builds a small campaign of real simulation jobs with probes
// and Collect hooks, the shape the experiments layer uses.
func simJobs(rms []float64) []Job {
	names := []string{"gzip", "twolf", "bzip2"}
	jobs := make([]Job, len(names))
	for i, name := range names {
		i, name := i, name
		jobs[i] = Job{
			ID:           name,
			Benchmark:    name,
			Instructions: 20_000,
			Warmup:       8_000,
			Setup: func() Hooks {
				paco := core.NewPaCo(core.PaCoConfig{RefreshPeriod: 10_000})
				rel := &metrics.Reliability{}
				return Hooks{
					Estimators: []core.Estimator{paco},
					Probe: func(_ int, onGood bool) {
						rel.Add(paco.GoodpathProb(), onGood)
					},
					Collect: func(res *Result, _ *cpu.Core, _ int) {
						res.SetExtra("rms_error", rel.RMSError())
						if rms != nil {
							rms[i] = rel.RMSError()
						}
					},
				}
			},
		}
	}
	return jobs
}

// TestDeterminismAcrossWorkers is the engine's core guarantee: the same
// campaign produces identical results (down to the serialized bytes) at
// -j 1 and -j 8.
func TestDeterminismAcrossWorkers(t *testing.T) {
	runAt := func(workers int) ([]Result, []byte) {
		results, err := Run(context.Background(), workers, simJobs(nil))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, results); err != nil {
			t.Fatal(err)
		}
		return results, buf.Bytes()
	}
	serial, serialJSON := runAt(1)
	parallel, parallelJSON := runAt(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("results differ across worker counts:\n-j1: %+v\n-j8: %+v", serial, parallel)
	}
	if !bytes.Equal(serialJSON, parallelJSON) {
		t.Fatal("serialized results differ across worker counts")
	}
	for i, r := range serial {
		if r.IPC <= 0 || r.Cycles == 0 || r.Stats.RetiredGood == 0 {
			t.Fatalf("job %d: empty measurement %+v", i, r)
		}
		if r.Extra["rms_error"] <= 0 {
			t.Fatalf("job %d: Collect hook did not run", i)
		}
	}
	if Summarize(serial) != Summarize(parallel) {
		t.Fatal("summaries differ across worker counts")
	}
}

// TestSeedOverride: a job seed changes the instruction stream; equal
// seeds reproduce it.
func TestSeedOverride(t *testing.T) {
	job := func(seed uint64) Job {
		return Job{ID: "gzip", Benchmark: "gzip", Instructions: 15_000, Warmup: 5_000, Seed: seed}
	}
	run1, err := Run(context.Background(), 1, []Job{job(0), job(12345), job(12345)})
	if err != nil {
		t.Fatal(err)
	}
	if run1[1].Stats != run1[2].Stats {
		t.Fatal("equal seeds produced different runs")
	}
	if run1[0].Stats == run1[1].Stats {
		t.Fatal("seed override had no effect")
	}
	if run1[1].Seed != 12345 {
		t.Fatalf("result seed = %d", run1[1].Seed)
	}
}

// TestPanicRecovery: a panicking job fails alone, at every batch width;
// its result carries its own JobID and the panic, its neighbors
// complete, and Run names the first panicking job. The Setup panic and
// the Attached cell's Probe panic share a stream key with job 0, so at
// K >= 2 they plan into units with it.
func TestPanicRecovery(t *testing.T) {
	jobs := simJobs(nil)[:2]
	setupBoom := jobs[0]
	setupBoom.ID = "setup-boom"
	setupBoom.Setup = func() Hooks { panic("setup kaboom") }
	// An Attached cell runs on a batch of its own, so a panic in its
	// measured window fails it alone even beside healthy cells of its
	// stream.
	probeBoom := jobs[0]
	probeBoom.ID = "probe-boom"
	probeBoom.Setup = func() Hooks {
		return Hooks{
			Attached: func(*cpu.Core, int) {},
			Probe:    func(int, bool) { panic("probe kaboom") },
		}
	}
	jobs = append(jobs, Job{
		ID: "boom",
		Exec: func(context.Context) (*Result, error) {
			panic("kaboom")
		},
	}, setupBoom, probeBoom)
	panics := map[int]string{2: "panic: kaboom", 3: "panic: setup kaboom", 4: "panic: probe kaboom"}

	for _, batchK := range []int{0, 2, 8} {
		r := Runner{Workers: 4, BatchK: batchK}
		results, err := r.Run(context.Background(), jobs)
		if err == nil || !strings.Contains(err.Error(), "job 2 (boom): panic: kaboom") {
			t.Fatalf("K=%d: err = %v, want job 2's panic surfaced", batchK, err)
		}
		for i, res := range results {
			if res.JobID != jobs[i].ID || res.Index != i {
				t.Fatalf("K=%d: result %d = %+v, want JobID %q", batchK, i, res, jobs[i].ID)
			}
			if want, ok := panics[i]; ok {
				if !strings.Contains(res.Err, want) {
					t.Fatalf("K=%d: panicking job %d Err = %q, want %q", batchK, i, res.Err, want)
				}
			} else if res.Failed() || res.IPC <= 0 {
				t.Fatalf("K=%d: healthy job %d disturbed: %+v", batchK, i, res)
			}
		}
	}
}

// TestRunnerObservability pins the runner's instrumentation contract
// over a mixed plan: an Exec singleton, a one-cell unit, and a
// two-cell unit. Units of one count as SingletonCells with their cell
// span under Runner.Parent; the K-cell unit counts K BatchedCells and
// records one "batch" span holding its K cell spans. BatchSize observes
// once per unit; SimDuration and QueueWait once per cell.
func TestRunnerObservability(t *testing.T) {
	jobs := []Job{
		{ID: "exec", Exec: func(context.Context) (*Result, error) { return &Result{IPC: 1}, nil }},
		{ID: "twolf", Benchmark: "twolf", Instructions: 2000, Warmup: 500},
		{ID: "gzip-a", Benchmark: "gzip", Instructions: 2000, Warmup: 500},
		{ID: "gzip-b", Benchmark: "gzip", Instructions: 2000, Warmup: 500},
	}
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(64)
	root := rec.Start("trace-1", "job", "root", 0)
	r := Runner{
		Workers:        2,
		BatchK:         2,
		SimDuration:    reg.Histogram("test_sim_seconds", "sim", nil),
		QueueWait:      reg.Histogram("test_queue_wait_seconds", "wait", nil),
		Recorder:       rec,
		Trace:          "trace-1",
		Parent:         root.ID(),
		BatchSize:      reg.Histogram("test_batch_size", "size", obs.ExpBuckets(1, 2, 5)),
		BatchedCells:   reg.Counter("test_batched_cells_total", "batched"),
		SingletonCells: reg.Counter("test_singleton_cells_total", "singleton"),
	}
	if _, err := r.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	root.End("")

	if got := r.SingletonCells.Value(); got != 2 {
		t.Errorf("SingletonCells = %d, want 2", got)
	}
	if got := r.BatchedCells.Value(); got != 2 {
		t.Errorf("BatchedCells = %d, want 2", got)
	}
	if n, sum := r.BatchSize.Count(), r.BatchSize.Sum(); n != 3 || sum != 4 {
		t.Errorf("BatchSize count/sum = %d/%g, want 3 units over 4 cells", n, sum)
	}
	if n := r.SimDuration.Count(); n != 4 {
		t.Errorf("SimDuration count = %d, want 4", n)
	}
	if n := r.QueueWait.Count(); n != 4 {
		t.Errorf("QueueWait count = %d, want 4", n)
	}

	batches := rec.Snapshot(obs.Filter{Kind: "batch"})
	if len(batches) != 1 || batches[0].Parent != root.ID() || batches[0].Trace != "trace-1" {
		t.Fatalf("batch spans = %+v, want one under the root", batches)
	}
	wantParent := map[string]uint64{
		"exec": root.ID(), "twolf": root.ID(),
		"gzip-a": batches[0].ID, "gzip-b": batches[0].ID,
	}
	cells := rec.Snapshot(obs.Filter{Kind: "cell"})
	if len(cells) != len(jobs) {
		t.Fatalf("cell spans = %d, want %d", len(cells), len(jobs))
	}
	for _, sp := range cells {
		if want, ok := wantParent[sp.Name]; !ok || sp.Parent != want || sp.Trace != "trace-1" || sp.Err != "" {
			t.Errorf("cell span %q: parent %d trace %q err %q, want parent %d", sp.Name, sp.Parent, sp.Trace, sp.Err, want)
		}
	}
}

// TestJobError: a plain error is recorded and surfaced, pointing at the
// failing job.
func TestJobError(t *testing.T) {
	jobs := []Job{
		{ID: "ok", Benchmark: "gzip", Instructions: 10_000, Warmup: 2_000},
		{ID: "bad", Benchmark: "no-such-benchmark", Instructions: 10_000},
	}
	results, err := Run(context.Background(), 2, jobs)
	if err == nil || !strings.Contains(err.Error(), "bad") {
		t.Fatalf("err = %v", err)
	}
	if results[0].Failed() || !results[1].Failed() {
		t.Fatalf("results = %+v", results)
	}
}

// TestCancellation: cancelling mid-campaign stops unstarted jobs,
// surfaces ctx.Err(), and settles every job exactly once.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 24
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		jobs[i] = Job{
			ID: "job",
			Exec: func(context.Context) (*Result, error) {
				if i == 0 {
					cancel() // first job cancels the campaign
				}
				return &Result{IPC: 1}, nil
			},
		}
	}
	var settled atomic.Int64
	r := Runner{Workers: 1, OnProgress: func(done, total int, res *Result) {
		settled.Add(1)
		if total != n {
			t.Errorf("total = %d", total)
		}
	}}
	results, err := r.Run(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := settled.Load(); got != n {
		t.Fatalf("progress callbacks = %d, want %d", got, n)
	}
	var skippedCount int
	for _, res := range results {
		if res.Skipped {
			skippedCount++
		}
	}
	if skippedCount == 0 {
		t.Fatal("no jobs were skipped after cancellation")
	}
	if results[0].Skipped {
		t.Fatal("first job should have run")
	}
}

// TestProgress: callbacks are serialized and complete.
func TestProgress(t *testing.T) {
	var calls int
	var lastDone int
	r := Runner{Workers: 4, OnProgress: func(done, total int, res *Result) {
		calls++ // serialized by the runner; no lock needed
		lastDone = done
	}}
	jobs := simJobs(nil)
	if _, err := r.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if calls != len(jobs) || lastDone != len(jobs) {
		t.Fatalf("calls = %d, lastDone = %d", calls, lastDone)
	}
}

// TestMergeAndSerialize: shards merge back into job order, and results
// survive a JSON round trip.
func TestMergeAndSerialize(t *testing.T) {
	results, err := Run(context.Background(), 2, simJobs(nil))
	if err != nil {
		t.Fatal(err)
	}
	merged := Merge(results[2:], results[:2])
	if !reflect.DeepEqual(merged, results) {
		t.Fatal("merge did not restore job order")
	}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, results); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, results) {
		t.Fatal("JSON round trip lost data")
	}

	var csvBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, results); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != len(results)+1 {
		t.Fatalf("csv lines = %d", len(lines))
	}
	if !strings.Contains(lines[0], "rms_error") {
		t.Fatalf("csv header missing extra column: %s", lines[0])
	}
}

// TestCustomSpec: explicit specs are copied per job, so one spec can
// back many jobs concurrently.
func TestCustomSpec(t *testing.T) {
	spec, err := workload.NewBenchmark("gzip")
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Job, 4)
	for i := range jobs {
		jobs[i] = Job{ID: "shared", Spec: spec, Instructions: 10_000, Warmup: 2_000}
	}
	results, err := Run(context.Background(), 4, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(results); i++ {
		if results[i].Stats != results[0].Stats {
			t.Fatalf("shared-spec jobs diverged at %d", i)
		}
	}
}

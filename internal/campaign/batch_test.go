package campaign

import (
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"paco/internal/scenario"
)

// fuzzGrids returns a deterministic set of fuzzed + hand-shaped grids
// covering the planner's cases: refresh-axis merges, gated lanes, mixed
// workload kinds, width variation, and fuzzed scenario workloads.
func fuzzGrids(t *testing.T) []Grid {
	t.Helper()
	raw := []Grid{
		{Benchmarks: []string{"gzip"}, Refresh: []uint64{50_000, 100_000, 200_000, 400_000},
			Instructions: 5000, Warmup: 2000},
		{Benchmarks: []string{"gzip", "twolf"}, Refresh: []uint64{100_000, 200_000},
			ProbGates: []float64{0.3}, Thresholds: []uint32{12},
			Instructions: 5000, Warmup: 2000},
		{Benchmarks: []string{"mcf"}, Refresh: []uint64{100_000, 200_000}, Widths: []int{2, 4},
			Instructions: 4000, Warmup: 1000},
		{Fuzz: &scenario.FuzzSpec{Seed: 11, Count: 2}, Refresh: []uint64{100_000, 200_000, 400_000},
			ProbGates: []float64{0.2}, Instructions: 4000, Warmup: 1000, Seed: 99},
	}
	grids := make([]Grid, 0, len(raw))
	for i, g := range raw {
		n, err := g.Normalized()
		if err != nil {
			t.Fatalf("grid %d: %v", i, err)
		}
		grids = append(grids, n)
	}
	return grids
}

// TestPlanBatchesPartition is the planner property test: for arbitrary
// fuzzed grids and batch widths, the plan covers every cell exactly
// once, respects the width bound, groups only equal stream keys, and is
// deterministic.
func TestPlanBatchesPartition(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for gi, g := range fuzzGrids(t) {
		jobs := g.Jobs()
		for _, batchK := range []int{0, 1, 2, 3, 4, 7, 16, 1 + r.Intn(32)} {
			units := PlanBatches(jobs, batchK)
			seen := make([]int, len(jobs))
			for _, u := range units {
				if len(u.Cells) == 0 {
					t.Fatalf("grid %d K=%d: empty unit", gi, batchK)
				}
				if batchK > 1 && len(u.Cells) > batchK {
					t.Fatalf("grid %d K=%d: unit of %d cells exceeds batch width", gi, batchK, len(u.Cells))
				}
				for _, ci := range u.Cells {
					seen[ci]++
					if key, ok := StreamKey(&jobs[ci]); ok && len(u.Cells) > 1 && key != u.Key {
						t.Fatalf("grid %d K=%d: cell %d key %s grouped under %s", gi, batchK, ci, key, u.Key)
					}
				}
			}
			for ci, n := range seen {
				if n != 1 {
					t.Fatalf("grid %d K=%d: cell %d covered %d times, want exactly once", gi, batchK, ci, n)
				}
			}
			if batchK <= 1 {
				// Unbatched: one unit per cell, in job order, keyed.
				for ui, u := range units {
					key, _ := StreamKey(&jobs[ui])
					if len(u.Cells) != 1 || u.Cells[0] != ui || u.Key != key {
						t.Fatalf("grid %d K=%d: unit %d = %+v, want cell %d alone under its key", gi, batchK, ui, u, ui)
					}
				}
			}
			if again := PlanBatches(jobs, batchK); !reflect.DeepEqual(units, again) {
				t.Fatalf("grid %d K=%d: plan is not deterministic", gi, batchK)
			}
		}
	}
}

// TestPlanBatchesUnbatchable pins that custom-Exec jobs always plan as
// keyless singletons, whatever their neighbors share.
func TestPlanBatchesUnbatchable(t *testing.T) {
	jobs := []Job{
		{ID: "a", Benchmark: "gzip", Instructions: 1000},
		{ID: "x", Benchmark: "gzip", Instructions: 1000,
			Exec: func(context.Context) (*Result, error) { return &Result{}, nil }},
		{ID: "b", Benchmark: "gzip", Instructions: 1000},
	}
	units := PlanBatches(jobs, 8)
	if len(units) != 2 {
		t.Fatalf("got %d units, want 2 (batched pair + exec singleton): %+v", len(units), units)
	}
	for _, u := range units {
		for _, ci := range u.Cells {
			if ci == 1 && (len(u.Cells) != 1 || u.Key != "") {
				t.Fatalf("Exec job batched: %+v", u)
			}
		}
	}
}

// marshalResults canonicalizes a result slice for byte comparison.
func marshalResults(t *testing.T, results []Result) string {
	t.Helper()
	raw, err := json.MarshalIndent(results, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestBatchedRunnerByteIdentical is the tentpole guarantee at the
// campaign level: for fuzzed grids, the batched runner's result slice
// is byte-identical to the unbatched runner's at several batch widths
// and worker counts.
func TestBatchedRunnerByteIdentical(t *testing.T) {
	for gi, g := range fuzzGrids(t) {
		unbatched := Runner{Workers: 3}
		want, wantErr := unbatched.Run(context.Background(), g.Jobs())
		if wantErr != nil {
			t.Fatalf("grid %d: unbatched run failed: %v", gi, wantErr)
		}
		wantJSON := marshalResults(t, want)
		for _, batchK := range []int{2, 4, 16} {
			batched := Runner{Workers: 2, BatchK: batchK}
			got, err := batched.Run(context.Background(), g.Jobs())
			if err != nil {
				t.Fatalf("grid %d K=%d: batched run failed: %v", gi, batchK, err)
			}
			if gotJSON := marshalResults(t, got); gotJSON != wantJSON {
				t.Errorf("grid %d K=%d: batched results differ from unbatched:\n--- batched\n%s\n--- unbatched\n%s",
					gi, batchK, gotJSON, wantJSON)
			}
		}
	}
}

// TestBatchedShardRunByteIdentical checks batched Shard.Run against the
// unbatched whole-grid run for every shard split: merging batched
// shards reproduces the unsplit, unbatched result slice byte for byte.
func TestBatchedShardRunByteIdentical(t *testing.T) {
	g, err := Grid{
		Benchmarks:   []string{"gzip", "twolf"},
		Refresh:      []uint64{100_000, 200_000, 400_000},
		ProbGates:    []float64{0.3},
		Instructions: 4000,
		Warmup:       1000,
	}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(context.Background(), 2, g.Jobs())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		want[i].Index = i
	}
	wantJSON := marshalResults(t, want)

	for _, n := range []int{1, 2, 3, 5} {
		shards, err := g.Shards(n)
		if err != nil {
			t.Fatal(err)
		}
		pieces := make([][]Result, len(shards))
		for i, sh := range shards {
			pieces[i], err = sh.Run(context.Background(), &Runner{Workers: 2, BatchK: 4})
			if err != nil {
				t.Fatalf("split %d shard %d: %v", n, i, err)
			}
		}
		merged := Merge(pieces...)
		if gotJSON := marshalResults(t, merged); gotJSON != wantJSON {
			t.Errorf("split %d: merged batched shards differ from unsplit unbatched run", n)
		}
	}
}

// TestBatchedRunnerErrorParity pins failure-path parity: a job that
// cannot resolve produces the same error result batched and unbatched,
// without disturbing its batch mates.
func TestBatchedRunnerErrorParity(t *testing.T) {
	jobs := []Job{
		{ID: "ok1", Benchmark: "gzip", Instructions: 2000, Warmup: 500},
		{ID: "bad", Benchmark: "no-such-benchmark", Instructions: 2000, Warmup: 500},
		{ID: "ok2", Benchmark: "gzip", Instructions: 2000, Warmup: 500},
	}
	unbatched := Runner{Workers: 1}
	want, _ := unbatched.Run(context.Background(), jobs)
	batched := Runner{Workers: 1, BatchK: 8}
	got, _ := batched.Run(context.Background(), jobs)
	if wantJSON, gotJSON := marshalResults(t, want), marshalResults(t, got); wantJSON != gotJSON {
		t.Errorf("error-path results differ:\n--- batched\n%s\n--- unbatched\n%s", gotJSON, wantJSON)
	}
}

// TestBatchedRunnerProgress checks the progress counters settle exactly
// as the unbatched runner's: every cell reported once, Done == total.
func TestBatchedRunnerProgress(t *testing.T) {
	g, err := Grid{Benchmarks: []string{"gzip"}, Refresh: []uint64{100_000, 200_000, 400_000},
		Instructions: 2000, Warmup: 500}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	jobs := g.Jobs()
	var calls int
	r := Runner{Workers: 2, BatchK: 2, OnProgress: func(done, total int, res *Result) {
		calls++
		if total != len(jobs) {
			t.Errorf("progress total %d, want %d", total, len(jobs))
		}
	}}
	if _, err := r.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if calls != len(jobs) {
		t.Errorf("progress called %d times, want %d", calls, len(jobs))
	}
	snap := r.Snapshot()
	if snap.Queued != 0 || snap.Running != 0 || snap.Done != len(jobs) {
		t.Errorf("final snapshot %+v, want {0 0 %d}", snap, len(jobs))
	}
}

// TestStreamKeyShape pins what the key must (and must not) separate.
func TestStreamKeyShape(t *testing.T) {
	base := Job{Benchmark: "gzip", Instructions: 1000, Warmup: 100}
	k1, ok := StreamKey(&base)
	if !ok {
		t.Fatal("benchmark job not batchable")
	}
	same := base
	same.ID = "different-id"
	same.Setup = cellSetup(100_000, gridGate{label: "ungated"})
	if k2, _ := StreamKey(&same); k2 != k1 {
		t.Error("ID/Setup changed the stream key; only the stream and quotas should")
	}
	for name, mut := range map[string]func(*Job){
		"benchmark":    func(j *Job) { j.Benchmark = "twolf" },
		"seed":         func(j *Job) { j.Seed = 7 },
		"instructions": func(j *Job) { j.Instructions = 2000 },
		"warmup":       func(j *Job) { j.Warmup = 200 },
	} {
		j := base
		mut(&j)
		if k2, _ := StreamKey(&j); k2 == k1 {
			t.Errorf("changing %s did not change the stream key", name)
		}
	}
}

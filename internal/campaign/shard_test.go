package campaign

import (
	"bytes"
	"context"
	"fmt"
	"testing"
)

func shardTestGrid(t *testing.T) Grid {
	t.Helper()
	g := Grid{
		Benchmarks:   []string{"gzip", "twolf"},
		Instructions: 8_000,
		Warmup:       2_000,
		Refresh:      []uint64{20_000},
		Widths:       []int{2, 4},
		ProbGates:    []float64{0.2},
	}
	n, err := g.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestRangesPartition(t *testing.T) {
	for _, tc := range []struct{ size, n int }{
		{1, 1}, {4, 1}, {4, 4}, {4, 7}, {10, 3}, {11, 4}, {4096, 16},
	} {
		ranges := Ranges(tc.size, tc.n)
		want := tc.n
		if want > tc.size {
			want = tc.size
		}
		if len(ranges) != want {
			t.Fatalf("Ranges(%d,%d) gave %d ranges, want %d", tc.size, tc.n, len(ranges), want)
		}
		lo := 0
		for i, r := range ranges {
			if r[0] != lo || r[1] <= r[0] {
				t.Fatalf("Ranges(%d,%d)[%d] = %v, want contiguous nonempty from %d", tc.size, tc.n, i, r, lo)
			}
			if w := r[1] - r[0]; w > ranges[0][1]-ranges[0][0] || ranges[0][1]-ranges[0][0]-w > 1 {
				t.Fatalf("Ranges(%d,%d) unbalanced: %v", tc.size, tc.n, ranges)
			}
			lo = r[1]
		}
		if lo != tc.size {
			t.Fatalf("Ranges(%d,%d) covers [0,%d), want [0,%d)", tc.size, tc.n, lo, tc.size)
		}
	}
	if Ranges(0, 3) != nil || Ranges(3, 0) != nil {
		t.Fatal("degenerate Ranges should be nil")
	}
}

// TestShardIDsStable: equal sweeps shard to equal content-addressed IDs
// regardless of how the grid was spelled, different shards and different
// sweeps get different IDs, and the IDs survive re-deriving the plan.
func TestShardIDsStable(t *testing.T) {
	g := shardTestGrid(t)
	shards, err := g.Shards(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 3 {
		t.Fatalf("got %d shards, want 3", len(shards))
	}

	// Same sweep, different spelling: normalization makes the IDs agree.
	alt, err := Grid{
		Widths:       []int{2, 4},
		ProbGates:    []float64{0.2},
		Refresh:      []uint64{20_000},
		Warmup:       2_000,
		Instructions: 8_000,
		Benchmarks:   []string{"gzip", "twolf"},
	}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	altShards, err := alt.Shards(3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := range shards {
		if shards[i].ID() != altShards[i].ID() {
			t.Fatalf("shard %d: equivalent grids gave IDs %s vs %s", i, shards[i].ID(), altShards[i].ID())
		}
		if seen[shards[i].ID()] {
			t.Fatalf("duplicate shard ID %s", shards[i].ID())
		}
		seen[shards[i].ID()] = true
	}

	// A different sweep must not collide.
	other := shardTestGrid(t)
	other.Instructions = 9_000
	otherShards, err := other.Shards(3)
	if err != nil {
		t.Fatal(err)
	}
	if seen[otherShards[0].ID()] {
		t.Fatal("distinct grids collided on a shard ID")
	}
	// A different plan over the same grid is different work.
	two, err := g.Shards(2)
	if err != nil {
		t.Fatal(err)
	}
	if two[0].ID() == shards[0].ID() {
		t.Fatal("shard 0 of a 2-plan collided with shard 0 of a 3-plan")
	}
}

func TestShardsErrors(t *testing.T) {
	g := shardTestGrid(t)
	if _, err := g.Shards(0); err == nil {
		t.Fatal("Shards(0) should error")
	}
	if _, err := (Grid{}).Shards(2); err == nil {
		t.Fatal("sharding an empty grid should error")
	}
	// More shards than cells trims rather than erroring.
	shards, err := g.Shards(1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != g.Size() {
		t.Fatalf("oversharded plan has %d shards, want %d (one per cell)", len(shards), g.Size())
	}
}

// TestShardRunMergeByteIdentical is the core distributed-determinism
// property at the campaign layer: running the shards of any plan — in
// any order, at any worker count — and merging reproduces the unsplit
// run's JSON and CSV byte for byte.
func TestShardRunMergeByteIdentical(t *testing.T) {
	g := shardTestGrid(t)
	whole, err := Run(context.Background(), 2, g.Jobs())
	if err != nil {
		t.Fatal(err)
	}
	var wantJSON, wantCSV bytes.Buffer
	if err := WriteJSON(&wantJSON, whole); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&wantCSV, whole); err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{1, 2, 3, 5, g.Size()} {
		shards, err := g.Shards(n)
		if err != nil {
			t.Fatal(err)
		}
		// Run the plan back to front to prove merge order, not execution
		// order, decides the output.
		pieces := make([][]Result, len(shards))
		for i := len(shards) - 1; i >= 0; i-- {
			workers := 1 + i%3
			pieces[i], err = shards[i].Run(context.Background(), workers, 0)
			if err != nil {
				t.Fatalf("shard %d: %v", i, err)
			}
		}
		merged := Merge(pieces...)
		var gotJSON, gotCSV bytes.Buffer
		if err := WriteJSON(&gotJSON, merged); err != nil {
			t.Fatal(err)
		}
		if err := WriteCSV(&gotCSV, merged); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON.Bytes(), wantJSON.Bytes()) {
			t.Fatalf("%d-shard merged JSON differs from the unsplit run", n)
		}
		if !bytes.Equal(gotCSV.Bytes(), wantCSV.Bytes()) {
			t.Fatalf("%d-shard merged CSV differs from the unsplit run", n)
		}
	}
}

func TestFirstError(t *testing.T) {
	if err := FirstError([]Result{{JobID: "a"}, {JobID: "b"}}); err != nil {
		t.Fatalf("clean results: %v", err)
	}
	err := FirstError([]Result{
		{Index: 0, JobID: "a"},
		{Index: 1, JobID: "bad", Err: "boom"},
		{Index: 2, JobID: "worse", Err: "later"},
	})
	if err == nil {
		t.Fatal("want an error for a failed cell")
	}
	want := fmt.Sprintf("campaign: job %d (%s): %s", 1, "bad", "boom")
	if err.Error() != want {
		t.Fatalf("FirstError = %q, want %q", err, want)
	}
}

package workload

import (
	"math"
	"runtime"
	"testing"
)

// TestWalkerNextZeroAllocs pins goodpath stream generation to zero heap
// allocations in steady state (the call stack clamp must slide in place,
// never re-slice off the front of its backing array).
func TestWalkerNextZeroAllocs(t *testing.T) {
	spec, err := NewBenchmark("gzip")
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWalker(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100_000; i++ {
		w.Next()
	}
	allocs := testing.AllocsPerRun(100_000, func() {
		w.Next()
	})
	if allocs != 0 {
		t.Fatalf("Walker.Next allocates %.4f times per instruction, want 0", allocs)
	}
}

// TestWrongPathNextZeroAllocs pins badpath generation likewise.
func TestWrongPathNextZeroAllocs(t *testing.T) {
	spec, err := NewBenchmark("gzip")
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWalker(spec)
	if err != nil {
		t.Fatal(err)
	}
	wp := NewWrongPath(w)
	wp.Redirect(0x4000)
	var ins Instruction
	allocs := testing.AllocsPerRun(50_000, func() {
		wp.NextInto(&ins)
		if ins.Kind == KindBranch {
			wp.ResolveBranch(&ins, true)
		}
	})
	if allocs != 0 {
		t.Fatalf("WrongPath.NextInto allocates %.4f times per instruction, want 0", allocs)
	}
}

// gcc is the largest bundled program (6 phases, about 8.8k blocks). Its
// build allocates about 2.3 MiB in about 6.3k allocations: the
// instruction arena and memory-pattern table are flat, so allocations
// track static branches, not blocks or memory instructions.
const (
	maxGccBuildBytes  = 11 << 18 // 2.75 MiB
	maxGccBuildAllocs = 8000
)

// TestNewWalkerFootprint pins what building gcc's program allocates, so a
// per-block instruction slice (about 8.8k more allocations) or a heap
// memory pattern per static load/store (about 18.6k more) fails here.
func TestNewWalkerFootprint(t *testing.T) {
	spec := MustBenchmark("gcc")
	var before, after runtime.MemStats
	bytes, allocs := uint64(math.MaxUint64), uint64(math.MaxUint64)
	// Take the smallest of a few builds: TotalAlloc and Mallocs are
	// process-wide, and only ever overcount one build.
	for range 3 {
		runtime.ReadMemStats(&before)
		w, err := NewWalker(spec)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(w)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
	}
	t.Logf("NewWalker(gcc) allocates %d bytes in %d allocations", bytes, allocs)
	if bytes > maxGccBuildBytes {
		t.Errorf("NewWalker(gcc) allocates %d bytes, want <= %d", bytes, maxGccBuildBytes)
	}
	if allocs > maxGccBuildAllocs {
		t.Errorf("NewWalker(gcc) makes %d allocations, want <= %d", allocs, maxGccBuildAllocs)
	}
}

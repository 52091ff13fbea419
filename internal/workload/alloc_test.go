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
// build allocates about 1.23 MiB: the program is five slabs of
// pointer-free values, sized once (2.26 MiB before the slabs).
const maxGccBuildBytes = 3 << 19 // 1.5 MiB

// TestNewWalkerFootprint pins what building gcc's program allocates, so a
// slab that outgrows its estimate and reallocates, or a field that widens
// a slab's element, fails here.
func TestNewWalkerFootprint(t *testing.T) {
	spec := MustBenchmark("gcc")
	var before, after runtime.MemStats
	bytes := uint64(math.MaxUint64)
	// Take the smallest of a few builds: TotalAlloc is process-wide, and
	// only ever overcounts one build.
	for range 3 {
		runtime.ReadMemStats(&before)
		w, err := NewWalker(spec)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(w)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("NewWalker(gcc) allocates %d bytes", bytes)
	if bytes > maxGccBuildBytes {
		t.Errorf("NewWalker(gcc) allocates %d bytes, want <= %d", bytes, maxGccBuildBytes)
	}
}

// TestNewWalkerAllocs bounds the allocations of every bundled
// benchmark's build. A build makes a fixed handful (the walker, its call
// stack, the program's five slabs) plus four per phase region (the
// region's function entries, its driver's call order and its diamond
// class sampler): 12 for a one-phase benchmark, 32 for gcc. Before the
// program was flat, every block's instruction slice, every static branch,
// its generator and its forked RNG were separate objects: 1,103
// (perlbmk) to 6,255 (gcc) allocations per build.
func TestNewWalkerAllocs(t *testing.T) {
	for _, name := range BenchmarkNames {
		spec := MustBenchmark(name)
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := NewWalker(spec); err != nil {
				t.Fatal(err)
			}
		})
		if limit := float64(16 + 4*len(spec.Phases)); allocs > limit {
			t.Errorf("NewWalker(%s) makes %.0f allocations, want <= %.0f", name, allocs, limit)
		}
	}
}

package workload

import (
	"math/rand"
	"testing"
)

// TestCursorMatchesWalker pins the tape's core contract: every cursor
// reads exactly the instruction sequence a private walker would
// generate, regardless of how reads interleave across cursors.
func TestCursorMatchesWalker(t *testing.T) {
	spec := MustBenchmark("gzip")
	tape, err := NewTape(spec)
	if err != nil {
		t.Fatal(err)
	}
	const readers = 3
	curs := make([]*Cursor, readers)
	for i := range curs {
		curs[i] = tape.NewCursor()
	}
	ref, err := NewWalker(MustBenchmark("gzip"))
	if err != nil {
		t.Fatal(err)
	}
	const n = 50_000
	want := make([]Instruction, n)
	for i := range want {
		want[i] = ref.Next()
	}

	// Interleave reads with deterministic but uneven scheduling so the
	// cursors drift apart and wrap the ring multiple times.
	r := rand.New(rand.NewSource(7))
	read := make([]int, readers)
	var got Instruction // reused: NextInto must overwrite every field
	for {
		allDone := true
		for i, cu := range curs {
			if read[i] >= n {
				continue
			}
			allDone = false
			burst := 1 + r.Intn(700)
			if left := n - read[i]; burst > left {
				burst = left
			}
			for j := 0; j < burst; j++ {
				cu.NextInto(&got)
				if got != want[read[i]] {
					t.Fatalf("cursor %d position %d: got %+v want %+v", i, read[i], got, want[read[i]])
				}
				read[i]++
			}
		}
		if allDone {
			break
		}
	}
	if tape.Walker().Produced() != n {
		t.Fatalf("walker produced %d instructions for %d readers, want %d (shared generation)",
			tape.Walker().Produced(), readers, n)
	}
}

// TestTapeGrowth forces cursor drift past the initial ring capacity and
// checks the slow reader still sees the exact stream.
func TestTapeGrowth(t *testing.T) {
	spec := MustBenchmark("twolf")
	tape, err := NewTape(spec)
	if err != nil {
		t.Fatal(err)
	}
	fast := tape.NewCursor()
	slow := tape.NewCursor()
	ref, err := NewWalker(MustBenchmark("twolf"))
	if err != nil {
		t.Fatal(err)
	}
	const drift = 3 * tapeInitialSize
	var got Instruction
	for i := 0; i < drift; i++ {
		fast.NextInto(&got)
	}
	if len(tape.buf) < drift {
		t.Fatalf("ring did not grow: len %d after %d drift", len(tape.buf), drift)
	}
	for i := 0; i < drift; i++ {
		slow.NextInto(&got)
		if want := ref.Next(); got != want {
			t.Fatalf("slow cursor position %d: got %+v want %+v", i, got, want)
		}
	}
}

// TestTapeWrongPath checks a wrong-path generator built from a cursor's
// walker behaves identically to one built from a private walker: it
// reads only the immutable spec, so badpath streams stay per-core.
func TestTapeWrongPath(t *testing.T) {
	tape, err := NewTape(MustBenchmark("mcf"))
	if err != nil {
		t.Fatal(err)
	}
	cur := tape.NewCursor()
	wpTape := NewWrongPath(cur.Walker())
	ref, err := NewWalker(MustBenchmark("mcf"))
	if err != nil {
		t.Fatal(err)
	}
	wpRef := NewWrongPath(ref)
	wpTape.Redirect(0x4000_1234)
	wpRef.Redirect(0x4000_1234)
	var good, got Instruction
	for i := 0; i < 10_000; i++ {
		// Drain the taped goodpath in between; badpath generation must
		// not observe it.
		if i%3 == 0 {
			cur.NextInto(&good)
		}
		var want Instruction
		wpTape.NextInto(&got)
		wpRef.NextInto(&want)
		if got != want {
			t.Fatalf("badpath instruction %d: got %+v want %+v", i, got, want)
		}
	}
}

// TestNewCursorAfterConsumptionPanics pins the misuse guard.
func TestNewCursorAfterConsumptionPanics(t *testing.T) {
	tape, err := NewTape(MustBenchmark("gzip"))
	if err != nil {
		t.Fatal(err)
	}
	tape.NewCursor().NextInto(new(Instruction))
	defer func() {
		if recover() == nil {
			t.Fatal("NewCursor after consumption began did not panic")
		}
	}()
	tape.NewCursor()
}

// TestCursorZeroAllocSteadyState pins the shared-stream read path to
// zero allocations once the ring has reached its steady-state size.
func TestCursorZeroAllocSteadyState(t *testing.T) {
	tape, err := NewTape(MustBenchmark("gzip"))
	if err != nil {
		t.Fatal(err)
	}
	a, b := tape.NewCursor(), tape.NewCursor()
	var ins Instruction
	for i := 0; i < 100_000; i++ {
		a.NextInto(&ins)
		b.NextInto(&ins)
	}
	allocs := testing.AllocsPerRun(50_000, func() {
		a.NextInto(&ins)
		b.NextInto(&ins)
	})
	if allocs != 0 {
		t.Fatalf("cursor read path allocates %.2f times per step in steady state, want 0", allocs)
	}
}

// BenchmarkCursorNext measures the replay read path (compare
// BenchmarkWalkerNext: the replay should be several times cheaper than
// generation).
func BenchmarkCursorNext(b *testing.B) {
	tape, err := NewTape(MustBenchmark("gzip"))
	if err != nil {
		b.Fatal(err)
	}
	lead := tape.NewCursor()
	cur := tape.NewCursor()
	var sink Instruction
	for i := 0; i < 1024; i++ {
		lead.NextInto(&sink)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cur.Pos() == lead.Pos() {
			b.StopTimer()
			for j := 0; j < 1024; j++ {
				lead.NextInto(&sink)
			}
			b.StartTimer()
		}
		cur.NextInto(&sink)
	}
}

package workload

import (
	"testing"
	"unsafe"
)

// TestInstructionSize pins the instruction record at 48 bytes: the
// kernel writes one per simulated instruction into its ROB, so growing it
// is per-instruction memory traffic.
func TestInstructionSize(t *testing.T) {
	if n := unsafe.Sizeof(Instruction{}); n > 48 {
		t.Fatalf("Instruction is %d bytes, want at most 48", n)
	}
}

// dirtyInstruction has every field set, so a generator that forgets one
// leaks it into the slot it fills.
var dirtyInstruction = Instruction{
	PC: ^uint64(0), NextPC: ^uint64(0), AltPC: ^uint64(0), Addr: ^uint64(0),
	Dep1: -7, Dep2: -7, StaticID: 1 << 30, Lat: 0xff, Kind: 0xee, Taken: true,
}

// TestNextIntoOverwritesSlot checks every generator writes each field of
// the slot it fills: the kernel reuses ROB slots without clearing them.
func TestNextIntoOverwritesSlot(t *testing.T) {
	for _, name := range []string{"gcc", "perlbmk"} {
		ref, err := NewWalker(MustBenchmark(name))
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWalker(MustBenchmark(name))
		if err != nil {
			t.Fatal(err)
		}
		tape, err := NewTape(MustBenchmark(name))
		if err != nil {
			t.Fatal(err)
		}
		cur := tape.NewCursor() // wraps the tape ring, refilling used slots
		wpDirty, wpRef := NewWrongPath(ref), NewWrongPath(ref)
		wpDirty.Redirect(0x1000_0000)
		wpRef.Redirect(0x1000_0000)
		for i := 0; i < 20_000; i++ {
			want := ref.Next()
			got := dirtyInstruction
			w.NextInto(&got)
			if got != want {
				t.Fatalf("%s goodpath %d: got %+v, want %+v", name, i, got, want)
			}
			cur.NextInto(&got)
			if got != want {
				t.Fatalf("%s taped goodpath %d: got %+v, want %+v", name, i, got, want)
			}
			var bad Instruction
			got = dirtyInstruction
			wpDirty.NextInto(&got)
			wpRef.NextInto(&bad)
			if got.Kind == KindBranch {
				wpDirty.ResolveBranch(&got, i%2 == 0)
				wpRef.ResolveBranch(&bad, i%2 == 0)
			}
			if got != bad {
				t.Fatalf("%s badpath %d: got %+v, want %+v", name, i, got, bad)
			}
		}
	}
}

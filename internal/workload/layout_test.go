package workload

import (
	"reflect"
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

// TestProgramLayout pins the sizes of a program's slab elements: a build
// writes one block per basic block, one staticInstr per static
// instruction and one memPattern per static load or store, so each byte
// here is multiplied by the program's size.
func TestProgramLayout(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"block", unsafe.Sizeof(block{}), 32},
		{"memPattern", unsafe.Sizeof(memPattern{}), 16},
		{"staticBranch", unsafe.Sizeof(staticBranch{}), 64},
	} {
		if c.got > c.want {
			t.Errorf("%s is %d bytes, want at most %d", c.name, c.got, c.want)
		}
	}
	if n := unsafe.Sizeof(staticInstr{}); n != 8 {
		t.Errorf("staticInstr is %d bytes, want 8", n)
	}
}

// hasPointers reports whether a value of type typ holds a pointer the GC
// would have to scan.
func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Array:
		return typ.Len() > 0 && hasPointers(typ.Elem())
	case reflect.Struct:
		for i := range typ.NumField() {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Chan, reflect.Func, reflect.Interface, reflect.String:
		return true
	}
	return false
}

// TestProgramIsPointerFree checks that a program is only slabs of
// pointer-free values: the GC never scans a program's contents, however
// large it is.
func TestProgramIsPointerFree(t *testing.T) {
	typ := reflect.TypeFor[program]()
	for i := range typ.NumField() {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Slice {
			t.Errorf("program.%s is a %v, want a slice", f.Name, f.Type)
		} else if hasPointers(f.Type.Elem()) {
			t.Errorf("program.%s's element %v holds a pointer", f.Name, f.Type.Elem())
		}
	}
	if !hasPointers(reflect.TypeFor[struct{ p *int }]()) || !hasPointers(reflect.TypeFor[[1]string]()) {
		t.Fatal("hasPointers misses a pointer")
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

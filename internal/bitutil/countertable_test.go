package bitutil

import (
	"math/rand"
	"testing"
)

// TestCounterTableMatchesSatCounter is a differential property test: for
// every width a CounterTable supports, and for table sizes that do and do
// not fill their last byte, random initial values and random
// Inc/Dec/Reset/Set sequences leave every table entry agreeing with a
// SatCounter driven by the same operations on Value, MSB and AtMax. Each
// operation on counter i must also leave every other counter, its
// neighbours in the same byte included, unchanged.
func TestCounterTableMatchesSatCounter(t *testing.T) {
	const steps = 4000
	r := rand.New(rand.NewSource(17))
	for width := uint(1); width <= 8; width++ {
		for _, entries := range []int{1, 3, 5, 8, 13} {
			for trial := 0; trial < 4; trial++ {
				initial := uint32(r.Intn(300)) // past the max of every width: clamps
				tab := NewCounterTable(entries, width, initial)
				ref := make([]SatCounter, entries)
				for i := range ref {
					ref[i] = NewSatCounter(width, initial)
				}
				before := make([]uint32, entries)
				check := func(step int, op string, touched int) {
					t.Helper()
					for i := range ref {
						idx := uint64(i)
						if i != touched && tab.Value(idx) != before[i] {
							t.Fatalf("width %d entries %d step %d (%s on %d): neighbour %d moved from %d to %d",
								width, entries, step, op, touched, i, before[i], tab.Value(idx))
						}
						if tab.Value(idx) != ref[i].Value() || tab.MSB(idx) != ref[i].MSB() || tab.AtMax(idx) != ref[i].AtMax() {
							t.Fatalf("width %d entries %d initial %d step %d (%s) entry %d: table value=%d msb=%v atmax=%v, SatCounter value=%d msb=%v atmax=%v",
								width, entries, initial, step, op, i, tab.Value(idx), tab.MSB(idx), tab.AtMax(idx),
								ref[i].Value(), ref[i].MSB(), ref[i].AtMax())
						}
					}
				}
				for i := range before {
					before[i] = ref[i].Value()
				}
				check(-1, "new", -1)
				for step := 0; step < steps; step++ {
					for i := range before {
						before[i] = tab.Value(uint64(i))
					}
					i := r.Intn(entries)
					idx := uint64(i)
					var op string
					// Inc and Dec dominate so counters reach both rails.
					switch n := r.Intn(20); {
					case n < 9:
						op = "inc"
						tab.Inc(idx)
						ref[i].Inc()
					case n < 18:
						op = "dec"
						tab.Dec(idx)
						ref[i].Dec()
					case n < 19:
						op = "reset"
						tab.Reset(idx)
						ref[i].Reset()
					default:
						v := uint32(r.Intn(300))
						op = "set"
						tab.Set(idx, v)
						ref[i].Set(v)
					}
					check(step, op, i)
				}
			}
		}
	}
}

// FuzzCounterTable drives a CounterTable of a fuzzed width, size and
// initial value with a fuzzed operation sequence and checks every counter
// against a []SatCounter after each operation. Each op byte picks the
// operation (low two bits) and the counter (the rest, modulo the size);
// Set takes its value from the next byte.
func FuzzCounterTable(f *testing.F) {
	f.Add(uint8(2), uint8(13), uint8(2), []byte{0, 4, 9, 1, 5, 2, 3, 7, 200})
	f.Add(uint8(4), uint8(5), uint8(0), []byte{0, 0, 0, 4, 2, 3, 15})
	f.Add(uint8(3), uint8(1), uint8(9), []byte{1, 1, 0, 3, 255})
	f.Add(uint8(8), uint8(2), uint8(255), []byte{0, 5, 1})
	f.Fuzz(func(t *testing.T, width, size, initial uint8, ops []byte) {
		w := uint(width%8) + 1
		entries := int(size%64) + 1
		tab := NewCounterTable(entries, w, uint32(initial))
		ref := make([]SatCounter, entries)
		for i := range ref {
			ref[i] = NewSatCounter(w, uint32(initial))
		}
		for k := 0; k < len(ops); k++ {
			i := int(ops[k]>>2) % entries
			idx := uint64(i)
			switch ops[k] & 3 {
			case 0:
				tab.Inc(idx)
				ref[i].Inc()
			case 1:
				tab.Dec(idx)
				ref[i].Dec()
			case 2:
				tab.Reset(idx)
				ref[i].Reset()
			case 3:
				var v uint32
				if k+1 < len(ops) {
					k++
					v = uint32(ops[k])
				}
				tab.Set(idx, v)
				ref[i].Set(v)
			}
			for j := range ref {
				jdx := uint64(j)
				if tab.Value(jdx) != ref[j].Value() || tab.MSB(jdx) != ref[j].MSB() || tab.AtMax(jdx) != ref[j].AtMax() {
					t.Fatalf("width %d entries %d op %d (byte %#x on %d): entry %d table value=%d msb=%v atmax=%v, SatCounter value=%d msb=%v atmax=%v",
						w, entries, k, ops[k], i, j, tab.Value(jdx), tab.MSB(jdx), tab.AtMax(jdx),
						ref[j].Value(), ref[j].MSB(), ref[j].AtMax())
				}
			}
		}
	})
}

// TestCounterTablePacking pins the storage rule: counters are packed at
// the smallest power-of-two slot width that holds them, so a table's
// bytes are its entries divided by the counters per byte, rounded up.
func TestCounterTablePacking(t *testing.T) {
	for _, c := range []struct {
		width   uint
		entries int
		bytes   int
	}{
		{1, 8, 1}, {1, 9, 2},
		{2, 128 * 1024, 32 * 1024}, {2, 5, 2},
		{3, 3, 2}, {4, 16384, 8192},
		{5, 7, 7}, {8, 4, 4},
	} {
		if got := len(NewCounterTable(c.entries, c.width, 0).packed); got != c.bytes {
			t.Errorf("%d %d-bit counters take %d bytes, want %d", c.entries, c.width, got, c.bytes)
		}
	}
}

func TestCounterTableWidthPanics(t *testing.T) {
	for _, w := range []uint{0, 9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("width %d did not panic", w)
				}
			}()
			NewCounterTable(4, w, 0)
		}()
	}
}

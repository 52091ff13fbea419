package bitutil

import (
	"math/rand"
	"testing"
)

// TestCounterTableMatchesSatCounter is a differential property test: for
// every width a CounterTable supports, random initial values and random
// Inc/Dec/Reset/Set sequences leave every table entry agreeing with a
// SatCounter driven by the same operations on Value, MSB and AtMax.
func TestCounterTableMatchesSatCounter(t *testing.T) {
	const entries, steps = 8, 4000
	r := rand.New(rand.NewSource(17))
	for width := uint(1); width <= 8; width++ {
		for trial := 0; trial < 4; trial++ {
			initial := uint32(r.Intn(300)) // past the max of every width: clamps
			tab := NewCounterTable(entries, width, initial)
			ref := make([]SatCounter, entries)
			for i := range ref {
				ref[i] = NewSatCounter(width, initial)
			}
			check := func(step int, op string) {
				t.Helper()
				for i := range ref {
					idx := uint64(i)
					if tab.Value(idx) != ref[i].Value() || tab.MSB(idx) != ref[i].MSB() || tab.AtMax(idx) != ref[i].AtMax() {
						t.Fatalf("width %d initial %d step %d (%s) entry %d: table value=%d msb=%v atmax=%v, SatCounter value=%d msb=%v atmax=%v",
							width, initial, step, op, i, tab.Value(idx), tab.MSB(idx), tab.AtMax(idx),
							ref[i].Value(), ref[i].MSB(), ref[i].AtMax())
					}
				}
			}
			check(-1, "new")
			for step := 0; step < steps; step++ {
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
				check(step, op)
			}
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

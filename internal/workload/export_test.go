package workload

// Test-only conveniences and views of a walker's counters.

// MustBenchmark is NewBenchmark for known-good names; it panics on error.
func MustBenchmark(name string) *Spec {
	s, err := NewBenchmark(name)
	if err != nil {
		panic(err)
	}
	return s
}

// Next returns the next goodpath instruction.
func (w *Walker) Next() (ins Instruction) {
	w.NextInto(&ins)
	return ins
}

// Produced returns how many goodpath instructions have been generated.
func (w *Walker) Produced() uint64 { return w.produced }

// PhaseSwitches returns how many phase transitions have occurred.
func (w *Walker) PhaseSwitches() uint64 { return w.phaseSwitches }

// KindCount returns how many instructions of kind k have been produced.
func (w *Walker) KindCount(k Kind) uint64 { return w.kindCounts[k] }

// Walker returns the tape's shared walker.
func (c *Cursor) Walker() *Walker { return c.tape.w }

package workload

// Tape shares one walker's goodpath instruction stream among several
// consumers. The batched lockstep kernel (cpu.Batch) runs K simulated
// cores against one workload; generating the stream once and replaying
// it through per-core cursors removes the dominant per-cell cost of a
// configuration sweep (walker generation is ~30% of cycle time).
//
// The tape is a power-of-two ring of produced instructions indexed by
// absolute stream position. A Cursor reads sequentially; reading at the
// head produces the next instruction from the walker. Slots behind the
// slowest cursor are reclaimed lazily: only when the ring looks full
// does the tape recompute the minimum cursor position, and only when
// the live span truly exceeds capacity does it grow (double) — so the
// steady-state read path is a masked ring load with no allocation, and
// ring size adapts to however far the lockstep scheduler lets cursors
// drift apart.
//
// The ring is allocated with the first cursor: a one-lane batch reads
// the walker directly (Walker) and never pays for a ring it would not
// read.
//
// A Tape and its cursors are confined to one goroutine (one batch); the
// sharing is across simulated cores, not OS threads.
type Tape struct {
	w        *Walker
	buf      []Instruction
	mask     uint64
	head     uint64 // next absolute position to produce
	released uint64 // cached lower bound on the minimum cursor position
	curs     []*Cursor
}

// tapeInitialSize is the starting ring capacity (entries). The lockstep
// scheduler bounds drift to roughly one instruction quantum per lane,
// so growth beyond this is rare.
const tapeInitialSize = 4096

// NewTape validates the spec and builds the shared walker. The error
// is exactly NewWalker's, so a batched run fails like a single run.
func NewTape(spec *Spec) (*Tape, error) {
	w, err := NewWalker(spec)
	if err != nil {
		return nil, err
	}
	return &Tape{w: w}, nil
}

// Walker returns the shared walker — the source of the taped stream.
// Callers use it for diagnostics, to build per-core wrong-path
// generators (a WrongPath reads only the walker's immutable spec), and
// as the goodpath source of a lone reader that needs no cursor.
func (t *Tape) Walker() *Walker { return t.w }

// Cursors returns how many cursors read the tape.
func (t *Tape) Cursors() int { return len(t.curs) }

// NewCursor returns a new reader positioned at the start of the stream.
// All cursors must be created before any reading begins: a cursor born
// after reclamation could point at discarded positions.
func (t *Tape) NewCursor() *Cursor {
	if t.head != 0 {
		panic("workload: tape cursor created after consumption began")
	}
	if t.buf == nil {
		t.buf = make([]Instruction, tapeInitialSize)
		t.mask = tapeInitialSize - 1
	}
	c := &Cursor{tape: t}
	t.curs = append(t.curs, c)
	return c
}

// produce appends the walker's next instruction to the ring.
func (t *Tape) produce() {
	if t.head-t.released >= uint64(len(t.buf)) {
		t.reclaim()
	}
	t.buf[t.head&t.mask] = t.w.Next()
	t.head++
}

// reclaim refreshes the released watermark from the true minimum cursor
// position, growing the ring when live data genuinely fills it.
func (t *Tape) reclaim() {
	min := t.head
	for _, cu := range t.curs {
		if cu.pos < min {
			min = cu.pos
		}
	}
	t.released = min
	if t.head-min >= uint64(len(t.buf)) {
		t.grow()
	}
}

// grow doubles the ring, re-placing live entries by absolute position.
func (t *Tape) grow() {
	nbuf := make([]Instruction, 2*len(t.buf))
	nmask := uint64(len(nbuf) - 1)
	for p := t.released; p < t.head; p++ {
		nbuf[p&nmask] = t.buf[p&t.mask]
	}
	t.buf = nbuf
	t.mask = nmask
}

// Cursor is one sequential reader of a Tape. The zero value is not
// usable; obtain cursors from Tape.NewCursor.
type Cursor struct {
	tape *Tape
	pos  uint64
}

// Pos returns the cursor's absolute stream position (instructions
// consumed). The lockstep scheduler keys on it to run the laggard.
func (c *Cursor) Pos() uint64 { return c.pos }

// Walker returns the tape's shared walker.
func (c *Cursor) Walker() *Walker { return c.tape.w }

// Next returns the next goodpath instruction, producing from the shared
// walker only when this cursor is the first to reach the stream head.
func (c *Cursor) Next() Instruction {
	t := c.tape
	if c.pos == t.head {
		t.produce()
	}
	ins := t.buf[c.pos&t.mask]
	c.pos++
	return ins
}

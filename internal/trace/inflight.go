package trace

import (
	"math/bits"
	"math/rand/v2"
	"slices"

	"paco/internal/core"
)

// Inflight holds the contributions of every fetched-but-unresolved
// branch, keyed by the branch's tag: one row of width contributions per
// branch, one per estimator. It is the bookkeeping both Replay and a
// live session do between a fetch and its resolve or squash, without a
// heap allocation per branch.
//
// Rows live in one slab with a stride of the width, and freed rows are
// reused through a free list. In front of the slab sits an
// open-addressed index from tag to row: linear probing, and
// backward-shift deletion, so no tombstones build up. Tags are
// arbitrary uint64s, 0 and MaxUint64 included; a slot is empty when its
// row field is 0, and rows are stored plus one. Tags come from clients,
// so each table hashes them under its own random seed: without it, a
// client could pick tags that all share one home slot and turn every
// Put into a scan of the whole index. The seed never reaches an output,
// because Drain goes in tag order.
//
// A row slice returned by Put or Take aliases the slab. It stays valid
// until the next Put, which may reuse or move it.
type Inflight struct {
	width int
	rows  []core.Contribution // slab: row r is rows[r*width : (r+1)*width]
	nrows int                 // rows ever handed out; the slab holds nrows*width
	free  []uint32            // released rows, reused before the slab grows
	slots []inflightSlot      // index; length zero or a power of two
	shift uint8               // 64 - log2(len(slots))
	seed  uint64              // mixed into every tag's hash
	n     int
}

type inflightSlot struct {
	tag uint64
	row uint32 // row+1; 0 marks an empty slot
}

// NewInflight returns an empty table whose rows hold width
// contributions.
func NewInflight(width int) *Inflight {
	return &Inflight{width: width, seed: rand.Uint64()}
}

// Len reports how many tags are in flight.
func (t *Inflight) Len() int { return t.n }

// home is tag's preferred slot: the splitmix64 finalizer of the seeded
// tag, whose top bits index the table.
func (t *Inflight) home(tag uint64) int {
	x := tag ^ t.seed
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return int((x ^ x>>31) >> t.shift)
}

// find returns tag's slot, or -1.
func (t *Inflight) find(tag uint64) int {
	if t.n == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := t.home(tag); ; i = (i + 1) & mask {
		switch s := t.slots[i]; {
		case s.row == 0:
			return -1
		case s.tag == tag:
			return i
		}
	}
}

// row returns row r of the slab.
func (t *Inflight) row(r uint32) []core.Contribution {
	lo := int(r) * t.width
	return t.rows[lo : lo+t.width : lo+t.width]
}

// Put returns the row for tag, to be filled with the estimators'
// fetch-time contributions. A tag already in flight keeps its row, which
// the caller then overwrites: a repeated fetch replaces the earlier one,
// as a map assignment would.
func (t *Inflight) Put(tag uint64) []core.Contribution {
	if (t.n+1)*4 > len(t.slots)*3 { // keep the load factor at most 3/4
		t.grow()
	}
	mask := len(t.slots) - 1
	i := t.home(tag)
	for ; t.slots[i].row != 0; i = (i + 1) & mask {
		if t.slots[i].tag == tag {
			return t.row(t.slots[i].row - 1)
		}
	}
	var r uint32
	if k := len(t.free); k > 0 {
		r = t.free[k-1]
		t.free = t.free[:k-1]
	} else {
		r = uint32(t.nrows)
		t.nrows++
		t.rows = slices.Grow(t.rows, t.width)[:t.nrows*t.width]
	}
	t.slots[i] = inflightSlot{tag: tag, row: r + 1}
	t.n++
	return t.row(r)
}

// Take removes tag and returns its row, or reports false when tag is not
// in flight.
func (t *Inflight) Take(tag uint64) ([]core.Contribution, bool) {
	i := t.find(tag)
	if i < 0 {
		return nil, false
	}
	r := t.slots[i].row - 1
	t.free = append(t.free, r)
	t.n--
	// Backward-shift deletion: pull each later entry of the probe run
	// into the hole unless its home lies cyclically in (hole, entry].
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].row != 0; j = (j + 1) & mask {
		h := t.home(t.slots[j].tag)
		if (j-h)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = inflightSlot{}
	return t.row(r), true
}

// grow doubles the index (to 8 slots from empty) and reinserts every
// tag.
func (t *Inflight) grow() {
	old := t.slots
	size := max(8, 2*len(old))
	t.slots = make([]inflightSlot, size)
	t.shift = uint8(64 - bits.Len(uint(size-1)))
	mask := size - 1
	for _, s := range old {
		if s.row == 0 {
			continue
		}
		i := t.home(s.tag)
		for t.slots[i].row != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// Drain removes every tag in ascending tag order, calling fn with each
// row, and leaves the table empty. Squashing in a fixed order keeps a
// close deterministic.
func (t *Inflight) Drain(fn func(row []core.Contribution)) {
	tags := make([]uint64, 0, t.n)
	for _, s := range t.slots {
		if s.row != 0 {
			tags = append(tags, s.tag)
		}
	}
	slices.Sort(tags)
	for _, tag := range tags {
		row, _ := t.Take(tag)
		fn(row)
	}
}

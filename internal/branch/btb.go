package branch

import "math/bits"

// BTB is a set-associative branch target buffer with true-LRU replacement.
// It predicts the target of taken branches, indirect jumps and calls.
// Indirect control flow mispredicts whenever the stored target differs from
// the actual one — the mechanism behind perlbmk's hot indirect call in the
// paper. Badpath fills pollute the BTB, which is one of the pollution
// effects the paper observes conservative gating removing.
type BTB struct {
	entries  []btbEntry // set s is entries[s*ways : (s+1)*ways]
	setMask  uint64
	tagShift uint // bits of pc>>2 the set index uses
	ways     int
	lruTick  uint64 // strictly increasing recency stamp

	lookups uint64
	hits    uint64
}

// btbEntry is 24 bytes. touch stamps from 1, so lru == 0 marks an
// invalid entry.
type btbEntry struct {
	tag    uint64
	target uint64
	lru    uint64 // higher = more recently used
}

// NewBTB returns a BTB with the given total entries (rounded to a power of
// two) and associativity.
func NewBTB(entries, ways int) *BTB {
	if ways <= 0 {
		panic("branch: BTB ways must be positive")
	}
	setCount := nextPow2(entries / ways)
	return &BTB{
		entries:  make([]btbEntry, setCount*ways),
		setMask:  uint64(setCount - 1),
		tagShift: uint(bits.Len(uint(setCount - 1))),
		ways:     ways,
	}
}

func (b *BTB) setFor(pc uint64) ([]btbEntry, uint64) {
	base := int((pc>>2)&b.setMask) * b.ways
	tag := pc >> 2 >> b.tagShift
	return b.entries[base : base+b.ways : base+b.ways], tag
}

// Lookup returns the predicted target for pc, and whether an entry exists.
func (b *BTB) Lookup(pc uint64) (target uint64, ok bool) {
	b.lookups++
	set, tag := b.setFor(pc)
	for i := range set {
		if set[i].lru != 0 && set[i].tag == tag {
			b.hits++
			b.touch(set, i)
			return set[i].target, true
		}
	}
	return 0, false
}

// Insert records (or refreshes) the target for pc, evicting the LRU way on
// conflict.
func (b *BTB) Insert(pc, target uint64) {
	set, tag := b.setFor(pc)
	victim := 0
	for i := range set {
		if set[i].lru != 0 && set[i].tag == tag {
			set[i].target = target
			b.touch(set, i)
			return
		}
		if set[i].lru == 0 {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = btbEntry{tag: tag, target: target}
	b.touch(set, victim)
}

// touch stamps entry i as the set's most recently used. The table-wide
// tick only increases, so the stamp exceeds every live entry's and LRU
// order stays exact without scanning the set (as in cache.Cache).
func (b *BTB) touch(set []btbEntry, i int) {
	b.lruTick++
	set[i].lru = b.lruTick
}

// Stats returns lifetime lookup and hit counts.
func (b *BTB) Stats() (lookups, hits uint64) { return b.lookups, b.hits }

// RAS is a fixed-depth return address stack with wrap-around overflow, the
// usual hardware behaviour. Speculative pushes/pops are not repaired on
// squash (a common simplification that slightly raises return mispredicts
// after deep wrong paths).
type RAS struct {
	entries []uint64
	top     int
	depth   int
}

// NewRAS returns a return address stack with the given depth.
func NewRAS(depth int) *RAS {
	if depth <= 0 {
		panic("branch: RAS depth must be positive")
	}
	return &RAS{entries: make([]uint64, depth), depth: depth}
}

// Push records a return address (on call fetch).
func (r *RAS) Push(addr uint64) {
	r.top = (r.top + 1) % r.depth
	r.entries[r.top] = addr
}

// Pop predicts the return target (on return fetch).
func (r *RAS) Pop() uint64 {
	addr := r.entries[r.top]
	r.top = (r.top - 1 + r.depth) % r.depth
	return addr
}

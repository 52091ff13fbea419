package branch

import (
	"math/rand"
	"testing"
	"unsafe"
)

// TestBTBEntryLayout pins a BTB entry at three words: tag, target and the
// recency stamp that doubles as its valid bit.
func TestBTBEntryLayout(t *testing.T) {
	if n := unsafe.Sizeof(btbEntry{}); n > 24 {
		t.Fatalf("btbEntry is %d bytes, want at most 24", n)
	}
}

// refBTB is the BTB before its entry dropped the valid flag, kept as the
// reference: validity is a flag, and the tag shift is recounted from the
// set mask on every access.
type refBTB struct {
	entries []refBTBEntry
	setMask uint64
	ways    int
	lruTick uint64

	lookups, hits uint64
}

type refBTBEntry struct {
	valid  bool
	tag    uint64
	target uint64
	lru    uint64
}

func newRefBTB(entries, ways int) *refBTB {
	setCount := 1
	for setCount < entries/ways {
		setCount <<= 1
	}
	return &refBTB{entries: make([]refBTBEntry, setCount*ways), setMask: uint64(setCount - 1), ways: ways}
}

func (b *refBTB) setFor(pc uint64) ([]refBTBEntry, uint64) {
	base := int((pc>>2)&b.setMask) * b.ways
	shift := 0
	for m := b.setMask; m != 0; m >>= 1 {
		shift++
	}
	return b.entries[base : base+b.ways], pc >> 2 >> shift
}

func (b *refBTB) lookup(pc uint64) (uint64, bool) {
	b.lookups++
	set, tag := b.setFor(pc)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			b.hits++
			b.lruTick++
			set[i].lru = b.lruTick
			return set[i].target, true
		}
	}
	return 0, false
}

func (b *refBTB) insert(pc, target uint64) {
	set, tag := b.setFor(pc)
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].target = target
			b.lruTick++
			set[i].lru = b.lruTick
			return
		}
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	b.lruTick++
	set[victim] = refBTBEntry{valid: true, tag: tag, target: target, lru: b.lruTick}
}

// TestBTBMatchesReference drives the BTB and the reference with the same
// seeded streams of lookups and inserts over twice the BTB's reach, low
// PCs included so that tag 0 meets never-filled entries. After every
// operation the lookup answer and the accessed set's entries must agree:
// validity, tag, target and recency, and so the victim order. At the end
// every entry and the stats must agree.
func TestBTBMatchesReference(t *testing.T) {
	for _, geom := range []struct{ entries, ways int }{{16, 1}, {64, 4}, {2048, 4}, {8, 8}} {
		for seed := int64(1); seed <= 4; seed++ {
			r := rand.New(rand.NewSource(seed))
			b, ref := NewBTB(geom.entries, geom.ways), newRefBTB(geom.entries, geom.ways)
			if len(b.entries) != len(ref.entries) {
				t.Fatalf("%v: %d entries, reference %d", geom, len(b.entries), len(ref.entries))
			}
			sameEntries := func(step, lo, hi int) {
				t.Helper()
				for i := lo; i < hi; i++ {
					e, re := b.entries[i], ref.entries[i]
					valid := e.lru != 0
					if valid != re.valid || valid && (e.tag != re.tag || e.target != re.target || e.lru != re.lru) {
						t.Fatalf("%v seed %d step %d: entry %d = %+v, reference %+v", geom, seed, step, i, e, re)
					}
				}
			}
			span := int64(geom.entries) * 4 * 2
			const steps = 20000
			for step := 0; step < steps; step++ {
				pc := uint64(r.Int63n(span)) &^ 3
				if r.Intn(2) == 0 {
					got, ok := b.Lookup(pc)
					want, wantOK := ref.lookup(pc)
					if got != want || ok != wantOK {
						t.Fatalf("%v seed %d step %d: Lookup(%#x) = %#x,%v, reference %#x,%v", geom, seed, step, pc, got, ok, want, wantOK)
					}
				} else {
					target := uint64(r.Intn(8)) << 2
					b.Insert(pc, target)
					ref.insert(pc, target)
				}
				base := int(pc>>2&ref.setMask) * ref.ways
				sameEntries(step, base, base+ref.ways)
			}
			sameEntries(steps, 0, len(b.entries))
			lookups, hits := b.Stats()
			if lookups != ref.lookups || hits != ref.hits {
				t.Fatalf("%v seed %d: stats %d/%d, reference %d/%d", geom, seed, lookups, hits, ref.lookups, ref.hits)
			}
		}
	}
}

package cache

import (
	"math/rand"
	"testing"
	"unsafe"
)

// TestLineLayout pins a cache line at two words: the tag and the stamp
// that carries validity and goodUsed. The L2 alone holds 4,096 of them.
func TestLineLayout(t *testing.T) {
	if n := unsafe.Sizeof(line{}); n > 16 {
		t.Fatalf("line is %d bytes, want at most 16", n)
	}
}

// refCache is the cache before its line layout was packed, kept as the
// reference: a line stores valid, badFill and goodUsed as flags beside
// its tick.
type refCache struct {
	lines     []refLine
	ways      int
	setMask   uint64
	lineShift uint
	tagShift  uint
	lruTick   uint64

	accesses, misses, badAccesses, badFills, badEvictions uint64
}

type refLine struct {
	tag      uint64
	lru      uint64
	valid    bool
	badFill  bool
	goodUsed bool
}

func newRefCache(cfg Config) *refCache {
	setCount := cfg.SizeKB * 1024 / cfg.LineSize / cfg.Ways
	c := &refCache{
		lines:   make([]refLine, setCount*cfg.Ways),
		ways:    cfg.Ways,
		setMask: uint64(setCount - 1),
	}
	for 1<<c.lineShift < cfg.LineSize {
		c.lineShift++
	}
	for m := c.setMask; m != 0; m >>= 1 {
		c.tagShift++
	}
	return c
}

func (c *refCache) access(addr uint64, badpath bool) bool {
	c.accesses++
	if badpath {
		c.badAccesses++
	}
	blk := addr >> c.lineShift
	base := int(blk&c.setMask) * c.ways
	set := c.lines[base : base+c.ways]
	tag := blk >> c.tagShift
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.lruTick++
			set[i].lru = c.lruTick
			if !badpath {
				set[i].goodUsed = true
			}
			return true
		}
	}
	c.misses++
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if badpath {
		c.badFills++
		if set[victim].valid && set[victim].goodUsed {
			c.badEvictions++
		}
	}
	c.lruTick++
	set[victim] = refLine{valid: true, tag: tag, badFill: badpath, goodUsed: !badpath, lru: c.lruTick}
	return false
}

// TestCacheMatchesReference drives the packed cache and the reference
// with the same seeded streams of goodpath and badpath accesses, over a
// small footprint so that sets conflict and goodpath lines are evicted by
// badpath fills. After every access the hit/miss answer and the accessed
// set's lines must agree: validity, tag, recency and goodUsed, and so the
// victim order. At the end every line and every Stats counter must agree.
func TestCacheMatchesReference(t *testing.T) {
	configs := []Config{
		{Name: "dm", SizeKB: 1, Ways: 1, LineSize: 64},
		{Name: "2w", SizeKB: 1, Ways: 2, LineSize: 64},
		{Name: "4w", SizeKB: 4, Ways: 4, LineSize: 128},
		{Name: "L2", SizeKB: 512, Ways: 8, LineSize: 128},
	}
	for _, cfg := range configs {
		for seed := int64(1); seed <= 4; seed++ {
			r := rand.New(rand.NewSource(seed))
			c, ref := New(cfg), newRefCache(cfg)
			if len(c.lines) != len(ref.lines) {
				t.Fatalf("%s: %d lines, reference %d", cfg.Name, len(c.lines), len(ref.lines))
			}
			sameLines := func(step, lo, hi int) {
				t.Helper()
				for i := lo; i < hi; i++ {
					l, rl := c.lines[i], ref.lines[i]
					valid := l.stamp != 0
					if valid != rl.valid || valid && (l.tag != rl.tag || l.stamp>>1 != rl.lru || l.stamp&goodUsed == 1 != rl.goodUsed) {
						t.Fatalf("%s seed %d step %d: line %d = %+v, reference %+v", cfg.Name, seed, step, i, l, rl)
					}
				}
			}
			// Twice the cache's bytes, so every set sees conflicts.
			span := uint64(cfg.SizeKB) * 1024 * 2
			badShare := int(seed - 1) // of 4: all goodpath through mostly badpath
			const steps = 20000
			for step := 0; step < steps; step++ {
				addr := uint64(r.Int63n(int64(span)))
				bad := r.Intn(4) < badShare
				if got, want := c.Access(addr, bad), ref.access(addr, bad); got != want {
					t.Fatalf("%s seed %d step %d: Access(%#x, bad=%v) = %v, reference %v", cfg.Name, seed, step, addr, bad, got, want)
				}
				base := int(addr>>ref.lineShift&ref.setMask) * ref.ways
				sameLines(step, base, base+ref.ways)
			}
			sameLines(steps, 0, len(c.lines))
			want := Stats{Name: cfg.Name, Accesses: ref.accesses, Misses: ref.misses, BadAccesses: ref.badAccesses, BadFills: ref.badFills, BadEvictions: ref.badEvictions}
			if got := c.Stats(); got != want {
				t.Fatalf("%s seed %d: Stats %+v, reference %+v", cfg.Name, seed, got, want)
			}
			if want.BadEvictions == 0 && badShare > 0 {
				t.Fatalf("%s seed %d: stream never evicted a goodpath line with a badpath fill", cfg.Name, seed)
			}
		}
	}
}

// BenchmarkCacheAccess measures one access to the Table 6 L2, the largest
// cache level: ns/op is one Access, over a seeded stream of addresses
// spanning twice its capacity, a quarter of them badpath, so it both hits
// and evicts.
func BenchmarkCacheAccess(b *testing.B) {
	cfg := DefaultHierarchyConfig().L2
	r := rand.New(rand.NewSource(5))
	type access struct {
		addr uint64
		bad  bool
	}
	stream := make([]access, 1<<14)
	for i := range stream {
		stream[i] = access{uint64(r.Int63n(int64(cfg.SizeKB) * 1024 * 2)), r.Intn(4) == 0}
	}
	c := New(cfg)
	i := 0
	for b.Loop() {
		a := stream[i&(len(stream)-1)]
		i++
		c.Access(a.addr, a.bad)
	}
}

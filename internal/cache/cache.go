// Package cache models the memory hierarchy of the paper's Table 6: 32KB
// 4-way L1 instruction and data caches and a 512KB 8-way unified L2, with
// true-LRU replacement and fixed miss latencies. It tracks enough state to
// reproduce the badpath-pollution effects the paper observes: wrong-path
// fills evict goodpath-touched lines, and the statistics distinguish
// goodpath from badpath accesses.
package cache

import "math/bits"

// Cache is one set-associative cache level with LRU replacement.
type Cache struct {
	name      string
	lines     []line // set s is lines[s*ways : (s+1)*ways]
	ways      int
	setMask   uint64
	lineShift uint
	tagShift  uint
	lruTick   uint64 // strictly increasing recency stamp

	accesses     uint64
	misses       uint64
	badAccesses  uint64
	badFills     uint64
	badEvictions uint64 // goodpath-touched lines evicted by badpath fills
}

// line is 16 bytes: the tag and a recency stamp that also carries the
// line's two flags. stamp is tick<<1 | goodUsed, where tick is the
// cache's lruTick at the line's last touch and goodUsed records a
// goodpath touch since the fill. Ticks start at 1, so stamp == 0 marks
// an invalid line. Ticks are unique within a cache and only increase, so
// stamps order lines exactly as their ticks do.
type line struct {
	tag   uint64
	stamp uint64
}

// goodUsed is the stamp bit set once a goodpath access touches the line.
const goodUsed = 1

// Config sizes one cache level.
type Config struct {
	Name     string
	SizeKB   int
	Ways     int
	LineSize int
}

// New builds a cache from cfg.
func New(cfg Config) *Cache {
	if cfg.SizeKB <= 0 || cfg.Ways <= 0 || cfg.LineSize <= 0 {
		panic("cache: invalid config")
	}
	lines := cfg.SizeKB * 1024 / cfg.LineSize
	setCount := lines / cfg.Ways
	if setCount < 1 || setCount&(setCount-1) != 0 {
		panic("cache: set count must be a positive power of two")
	}
	return &Cache{
		name:      cfg.Name,
		lines:     make([]line, setCount*cfg.Ways),
		ways:      cfg.Ways,
		setMask:   uint64(setCount - 1),
		lineShift: uint(bits.Len(uint(cfg.LineSize - 1))),
		tagShift:  uint(bits.OnesCount64(uint64(setCount - 1))),
	}
}

// Access looks up addr, filling on miss. badpath marks the access as
// wrong-path for pollution accounting. It returns whether the access hit.
func (c *Cache) Access(addr uint64, badpath bool) bool {
	c.accesses++
	if badpath {
		c.badAccesses++
	}
	blk := addr >> c.lineShift
	base := int(blk&c.setMask) * c.ways
	set := c.lines[base : base+c.ways : base+c.ways]
	tag := blk >> c.tagShift
	for i := range set {
		if set[i].stamp != 0 && set[i].tag == tag {
			c.touch(&set[i], badpath)
			return true
		}
	}
	c.misses++
	victim := 0
	for i := range set {
		if set[i].stamp == 0 {
			victim = i
			break
		}
		if set[i].stamp < set[victim].stamp {
			victim = i
		}
	}
	if badpath {
		c.badFills++
		if set[victim].stamp&goodUsed != 0 {
			c.badEvictions++
		}
	}
	set[victim] = line{tag: tag}
	c.touch(&set[victim], badpath)
	return false
}

// touch stamps l as its set's most recently used, keeping its goodUsed
// bit and setting it on a goodpath access. The cache-wide tick only
// increases, so the stamp exceeds every live line's and LRU order stays
// exact without scanning the set.
func (c *Cache) touch(l *line, badpath bool) {
	c.lruTick++
	stamp := c.lruTick<<1 | l.stamp&goodUsed
	if !badpath {
		stamp |= goodUsed
	}
	l.stamp = stamp
}

// Stats reports lifetime counters.
type Stats struct {
	Name         string
	Accesses     uint64
	Misses       uint64
	BadAccesses  uint64
	BadFills     uint64
	BadEvictions uint64
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Name:         c.name,
		Accesses:     c.accesses,
		Misses:       c.misses,
		BadAccesses:  c.badAccesses,
		BadFills:     c.badFills,
		BadEvictions: c.badEvictions,
	}
}

// Hierarchy is the two-level hierarchy of Table 6 with fixed per-level miss
// costs: an L1 miss that hits L2 costs L1MissPenalty; an L2 miss costs an
// additional L2MissPenalty.
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache

	L1IMissPenalty uint64
	L1DMissPenalty uint64
	L2MissPenalty  uint64
}

// HierarchyConfig sizes the hierarchy; DefaultHierarchyConfig matches
// Table 6.
type HierarchyConfig struct {
	L1I, L1D, L2                                  Config
	L1IMissPenalty, L1DMissPenalty, L2MissPenalty uint64
}

// DefaultHierarchyConfig returns the paper's Table 6 memory system: 32KB
// 4-way L1I (128B lines, 10 cycle miss), 32KB 4-way L1D (64B lines, 10
// cycle miss), 512KB 8-way L2 (128B lines, 100 cycle miss).
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:            Config{Name: "L1I", SizeKB: 32, Ways: 4, LineSize: 128},
		L1D:            Config{Name: "L1D", SizeKB: 32, Ways: 4, LineSize: 64},
		L2:             Config{Name: "L2", SizeKB: 512, Ways: 8, LineSize: 128},
		L1IMissPenalty: 10,
		L1DMissPenalty: 10,
		L2MissPenalty:  100,
	}
}

// NewHierarchy builds the hierarchy from cfg.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return &Hierarchy{
		L1I:            New(cfg.L1I),
		L1D:            New(cfg.L1D),
		L2:             New(cfg.L2),
		L1IMissPenalty: cfg.L1IMissPenalty,
		L1DMissPenalty: cfg.L1DMissPenalty,
		L2MissPenalty:  cfg.L2MissPenalty,
	}
}

// FetchLatency returns the extra cycles (beyond the pipelined hit path) to
// fetch the instruction block at addr.
func (h *Hierarchy) FetchLatency(addr uint64, badpath bool) uint64 {
	if h.L1I.Access(addr, badpath) {
		return 0
	}
	if h.L2.Access(addr, badpath) {
		return h.L1IMissPenalty
	}
	return h.L1IMissPenalty + h.L2MissPenalty
}

// DataLatency returns the extra cycles for a load/store to addr.
func (h *Hierarchy) DataLatency(addr uint64, badpath bool) uint64 {
	if h.L1D.Access(addr, badpath) {
		return 0
	}
	if h.L2.Access(addr, badpath) {
		return h.L1DMissPenalty
	}
	return h.L1DMissPenalty + h.L2MissPenalty
}

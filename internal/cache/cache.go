// Package cache models the memory hierarchy of the paper's Table 6: 32KB
// 4-way L1 instruction and data caches and a 512KB 8-way unified L2, with
// true-LRU replacement and fixed miss latencies. It tracks enough state to
// reproduce the badpath-pollution effects the paper observes: wrong-path
// fills evict goodpath-touched lines, and the statistics distinguish
// goodpath from badpath accesses.
package cache

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

// line packs into 24 bytes: the two words first, then the three flags.
type line struct {
	tag      uint64
	lru      uint64
	valid    bool
	badFill  bool // line was filled by a badpath access
	goodUsed bool // line has been touched by a goodpath access
}

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
	shift := uint(0)
	for 1<<shift < cfg.LineSize {
		shift++
	}
	return &Cache{
		name:      cfg.Name,
		lines:     make([]line, setCount*cfg.Ways),
		ways:      cfg.Ways,
		setMask:   uint64(setCount - 1),
		lineShift: shift,
		tagShift:  uint(popcount(uint64(setCount - 1))),
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
		if set[i].valid && set[i].tag == tag {
			c.touch(set, i)
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
	set[victim] = line{valid: true, tag: tag, badFill: badpath, goodUsed: !badpath}
	c.touch(set, victim)
	return false
}

// touch stamps line i as the set's most recently used. A cache-wide
// strictly increasing tick replaces the seed's max-scan-plus-one: both
// schemes assign a value strictly greater than every live line's stamp,
// so the recency order — and therefore every LRU victim choice — is
// identical, without the O(ways) scan per access.
func (c *Cache) touch(set []line, i int) {
	c.lruTick++
	set[i].lru = c.lruTick
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

// MissRate returns misses/accesses, or 0 for an untouched cache.
func (c *Cache) MissRate() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}

func popcount(mask uint64) int {
	n := 0
	for mask != 0 {
		n += int(mask & 1)
		mask >>= 1
	}
	return n
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

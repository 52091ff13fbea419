package cache

import (
	"testing"
	"testing/quick"
)

func small() *Cache {
	return New(Config{Name: "t", SizeKB: 1, Ways: 2, LineSize: 64}) // 8 sets x 2 ways
}

func TestMissThenHit(t *testing.T) {
	c := small()
	if c.Access(0x100, false) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x100, false) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x13f, false) {
		t.Fatal("same-line access missed")
	}
	if c.Access(0x140, false) {
		t.Fatal("next-line access hit cold")
	}
}

func TestLRUReplacement(t *testing.T) {
	c := small() // 8 sets: addresses 64*8 apart map to the same set
	setStride := uint64(64 * 8)
	a, b, d := uint64(0), setStride, 2*setStride
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a most recent
	c.Access(d, false) // evicts b (LRU)
	if !c.Access(a, false) {
		t.Fatal("MRU line evicted")
	}
	if c.Access(b, false) {
		t.Fatal("LRU line survived")
	}
}

func TestBadpathPollutionAccounting(t *testing.T) {
	c := small()
	setStride := uint64(64 * 8)
	c.Access(0, false)          // goodpath fill
	c.Access(setStride, true)   // badpath fill
	c.Access(2*setStride, true) // badpath fill evicts the goodpath line (LRU)
	st := c.Stats()
	if st.BadFills != 2 {
		t.Fatalf("badFills = %d", st.BadFills)
	}
	if st.BadEvictions != 1 {
		t.Fatalf("badEvictions = %d, want 1 (goodpath-used line evicted by badpath)", st.BadEvictions)
	}
	if st.BadAccesses != 2 {
		t.Fatalf("badAccesses = %d", st.BadAccesses)
	}
}

// TestMissRate: two accesses to one line are one miss in two accesses.
func TestMissRate(t *testing.T) {
	c := small()
	c.Access(0, false)
	c.Access(0, false)
	if st := c.Stats(); st.Accesses != 2 || st.Misses != 1 {
		t.Fatalf("stats %+v, want 2 accesses and 1 miss", st)
	}
	if st := New(Config{Name: "x", SizeKB: 1, Ways: 1, LineSize: 64}).Stats(); st.Accesses != 0 || st.Misses != 0 {
		t.Fatalf("untouched cache stats %+v", st)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	New(Config{Name: "bad", SizeKB: 0, Ways: 1, LineSize: 64})
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	// Cold: L1 miss + L2 miss.
	if lat := h.DataLatency(0x1234, false); lat != 110 {
		t.Fatalf("cold data latency %d, want 110", lat)
	}
	// Warm L1.
	if lat := h.DataLatency(0x1234, false); lat != 0 {
		t.Fatalf("warm data latency %d, want 0", lat)
	}
	if lat := h.FetchLatency(0x9000, false); lat != 110 {
		t.Fatalf("cold fetch latency %d, want 110", lat)
	}
	if lat := h.FetchLatency(0x9000, false); lat != 0 {
		t.Fatalf("warm fetch latency %d", lat)
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	h.DataLatency(0x40, false) // fill both levels
	// Thrash L1D set with conflicting lines; L2 is bigger and keeps them.
	stride := uint64(64 * 128) // L1D set stride (32KB/4w/64B = 128 sets)
	for i := uint64(1); i <= 8; i++ {
		h.DataLatency(0x40+i*stride, false)
	}
	// Original line: L1 miss but should hit in the 512KB L2.
	if lat := h.DataLatency(0x40, false); lat != h.L1DMissPenalty {
		t.Fatalf("L2-hit latency %d, want %d", lat, h.L1DMissPenalty)
	}
}

// TestAccessAlwaysFills: property — any address hits immediately after
// being accessed.
func TestAccessAlwaysFills(t *testing.T) {
	c := New(Config{Name: "p", SizeKB: 4, Ways: 4, LineSize: 64})
	if err := quick.Check(func(addr uint64, bad bool) bool {
		c.Access(addr, bad)
		return c.Access(addr, bad)
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

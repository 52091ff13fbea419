package bitutil

import "math"

// The SatCounter and CounterTable operations below only tests use: the
// reference SatCounter the packed table is checked against needs the full
// Inc/Dec/Set/MSB/AtMax set.

// Dec decrements the counter, saturating at zero.
func (c *SatCounter) Dec() {
	if c.value > 0 {
		c.value--
	}
}

// MSB reports the counter's most significant bit, as CounterTable.MSB.
func (c *SatCounter) MSB() bool { return c.value > c.max/2 }

// Set forces counter i to v (clamped to range).
func (t *CounterTable) Set(i uint64, v uint32) {
	bit := i << (t.slotLog & 3)
	b := &t.packed[bit>>3]
	*b = *b&^(t.max<<(bit&7)) | uint8(min(v, uint32(t.max)))<<(bit&7)
}

// AtMax reports whether counter i is saturated high.
func (t *CounterTable) AtMax(i uint64) bool { return t.Value(i) == uint32(t.max) }

// Log2Error returns the absolute error of Log2Fixed at v, in log2 units.
// Mitchell's approximation under-estimates by at most ~0.0861.
func Log2Error(v uint32) float64 {
	return math.Log2(float64(v)) - float64(Log2Fixed(v))/LogScale
}

// Package bitutil provides the small hardware-style arithmetic primitives
// that PaCo's datapath is built from: saturating counters, a fixed-point
// Mitchell binary-logarithm circuit, and the encoded-probability conversion
// of the paper's Equation 3.
//
// Everything on the predictor's runtime path is integer arithmetic; floating
// point appears only in test/measurement helpers (DecodeProb, ExactEncode).
package bitutil

import (
	"math"
	"math/bits"
)

// SatCounter is an n-bit saturating up/down counter, the basic building
// block of direction predictors and miss-distance counters.
type SatCounter struct {
	value uint32
	max   uint32
}

// NewSatCounter returns a counter with the given width in bits (1..31) and
// initial value (clamped to range).
func NewSatCounter(widthBits uint, initial uint32) SatCounter {
	if widthBits == 0 || widthBits > 31 {
		panic("bitutil: SatCounter width out of range")
	}
	c := SatCounter{max: 1<<widthBits - 1}
	c.value = min(initial, c.max)
	return c
}

// Inc increments the counter, saturating at its maximum.
func (c *SatCounter) Inc() {
	if c.value < c.max {
		c.value++
	}
}

// Dec decrements the counter, saturating at zero.
func (c *SatCounter) Dec() {
	if c.value > 0 {
		c.value--
	}
}

// Reset sets the counter to zero.
func (c *SatCounter) Reset() { c.value = 0 }

// Set forces a value (clamped to range).
func (c *SatCounter) Set(v uint32) { c.value = min(v, c.max) }

// Value returns the current count.
func (c *SatCounter) Value() uint32 { return c.value }

// Max returns the saturation value.
func (c *SatCounter) Max() uint32 { return c.max }

// AtMax reports whether the counter is saturated high.
func (c *SatCounter) AtMax() bool { return c.value == c.max }

// MSB reports the counter's most significant bit — the "predict taken" bit
// of a 2-bit direction counter.
func (c *SatCounter) MSB() bool { return c.value > c.max/2 }

// CounterTable is a table of n-bit saturating counters (width 1..8)
// stored one byte per counter, the size a hardware table of such counters
// rounds up to. Counter i behaves exactly like a SatCounter of the same
// width. Direction predictors and the JRS table are CounterTables; the
// MRT's wider counters stay SatCounters.
type CounterTable struct {
	counters []uint8
	max      uint8
}

// NewCounterTable returns a table of entries counters of the given width
// in bits (1..8), each starting at initial (clamped to range).
func NewCounterTable(entries int, widthBits uint, initial uint32) CounterTable {
	if widthBits == 0 || widthBits > 8 {
		panic("bitutil: CounterTable width out of range")
	}
	t := CounterTable{counters: make([]uint8, entries), max: uint8(1<<widthBits - 1)}
	v := uint8(min(initial, uint32(t.max)))
	for i := range t.counters {
		t.counters[i] = v
	}
	return t
}

// Inc increments counter i, saturating at the maximum.
func (t *CounterTable) Inc(i uint64) {
	if t.counters[i] < t.max {
		t.counters[i]++
	}
}

// Dec decrements counter i, saturating at zero.
func (t *CounterTable) Dec(i uint64) {
	if t.counters[i] > 0 {
		t.counters[i]--
	}
}

// Reset sets counter i to zero.
func (t *CounterTable) Reset(i uint64) { t.counters[i] = 0 }

// Set forces counter i to v (clamped to range).
func (t *CounterTable) Set(i uint64, v uint32) { t.counters[i] = uint8(min(v, uint32(t.max))) }

// Value returns counter i's current count.
func (t *CounterTable) Value(i uint64) uint32 { return uint32(t.counters[i]) }

// AtMax reports whether counter i is saturated high.
func (t *CounterTable) AtMax(i uint64) bool { return t.counters[i] == t.max }

// MSB reports counter i's most significant bit, as SatCounter.MSB.
func (t *CounterTable) MSB(i uint64) bool { return t.counters[i] > t.max/2 }

// LogScale is the fixed-point scale of encoded probabilities: the paper
// multiplies -log2(p) by 1024 (Equation 3).
const LogScale = 1024

// EncodedMax is the clamp applied to encoded probabilities: values above
// 2^12 are converted to 2^12 (paper, Section 3.2). 4096/1024 = 4 bits of
// log2, i.e. a mispredict rate above ~93.75% never occurs in practice.
const EncodedMax = 1 << 12

// Log2Fixed returns an approximation of log2(v) in Q(10) fixed point
// (scaled by LogScale), using Mitchell's method: the characteristic is the
// index of the most significant set bit, and the mantissa bits below it are
// used directly as the fraction. This is exactly what a shift register plus
// counter computes in hardware (Mitchell 1962), and is the paper's "log
// circuit". v must be >= 1.
func Log2Fixed(v uint32) uint32 {
	if v == 0 {
		panic("bitutil: Log2Fixed of zero")
	}
	k := uint32(bits.Len32(v) - 1) // characteristic: floor(log2 v)
	frac := v - 1<<k               // mantissa bits below the MSB
	var fracFixed uint32
	if k <= 10 {
		fracFixed = frac << (10 - k)
	} else {
		fracFixed = frac >> (k - 10)
	}
	return k*LogScale + fracFixed
}

// Log2Error returns the absolute error of Log2Fixed at v, in log2 units.
// Mitchell's approximation under-estimates by at most ~0.0861; helper for
// tests and documentation.
func Log2Error(v uint32) float64 {
	return math.Log2(float64(v)) - float64(Log2Fixed(v))/LogScale
}

// EncodeRate converts a (correct, mispredict) counter pair into the paper's
// 12-bit encoded correct-prediction probability:
//
//	enc = round(-1024 * log2(correct / (correct+mispredict)))
//	    = 1024*log2(correct+mispredict) - 1024*log2(correct)
//
// computed entirely with the integer Mitchell circuit. A branch bucket that
// never mispredicts encodes to 0; enc is clamped to EncodedMax. correct must
// be >= 1 (a bucket with zero correct predictions saturates to EncodedMax).
func EncodeRate(correct, mispredict uint32) uint32 {
	if correct == 0 {
		return EncodedMax
	}
	total := correct + mispredict
	lgTotal := Log2Fixed(total)
	lgCorrect := Log2Fixed(correct)
	if lgTotal <= lgCorrect {
		return 0
	}
	enc := lgTotal - lgCorrect
	if enc > EncodedMax {
		return EncodedMax
	}
	return enc
}

// ExactEncode is the floating-point reference for EncodeRate, used by tests
// and by the Static-MRT variant's profile tables:
// round(-1024*log2(p)) clamped to EncodedMax.
func ExactEncode(p float64) uint32 {
	if p <= 0 {
		return EncodedMax
	}
	if p >= 1 {
		return 0
	}
	enc := math.Round(-float64(LogScale) * math.Log2(p))
	if enc >= EncodedMax {
		return EncodedMax
	}
	if enc < 0 {
		return 0
	}
	return uint32(enc)
}

// DecodeProb converts an encoded probability sum back into a real
// probability in [0, 1]: p = 2^(-enc/1024). The hardware never does this
// (Section 3.2, "Reconverting to real Goodpath Probability"); it exists for
// measurement and for converting an application's target probability into
// an encoded threshold once.
//
// Sums below decodeTableLimit skip math.Exp2 and still return its exact
// bits. Exp2 splits -s/1024 into an integer and a fraction, and the
// fraction depends only on s%1024. So the result is decodeFrac[s%1024]
// times the exact power 2^-(s/1024), rounded once, as Exp2 rounds it.
// TestDecodeProbTableExact checks every sum in the table's range.
func DecodeProb(encodedSum int64) float64 {
	if encodedSum <= 0 {
		return 1
	}
	if encodedSum < decodeTableLimit {
		q := uint64(encodedSum) / LogScale
		return decodeFrac[encodedSum%LogScale] * math.Float64frombits((1023-q)<<52) // 2^-q
	}
	return math.Exp2(-float64(encodedSum) / LogScale)
}

// decodeTableLimit bounds DecodeProb's table path: up to it, the power
// 2^-(s/1024) is a normal float64 built directly from its exponent bits.
const decodeTableLimit = 1023 * LogScale

// decodeFrac[f] is 2^(-f/1024), as math.Exp2 computes it.
var decodeFrac = func() (t [LogScale]float64) {
	for f := range t {
		t[f] = math.Exp2(-float64(f) / LogScale)
	}
	return t
}()

// EncodeProbThreshold converts a target real probability into the encoded
// threshold an application compares the running sum against — e.g. a 10%
// gating target becomes 3401 (the paper quotes 3321 from its slightly
// different rounding; the comparison semantics are identical: gate when the
// encoded sum exceeds the threshold).
func EncodeProbThreshold(p float64) int64 {
	if p <= 0 {
		return math.MaxInt64
	}
	if p >= 1 {
		return 0
	}
	return int64(math.Round(-float64(LogScale) * math.Log2(p)))
}

func min(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

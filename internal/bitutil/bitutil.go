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

// Reset sets the counter to zero.
func (c *SatCounter) Reset() { c.value = 0 }

// Set forces a value (clamped to range).
func (c *SatCounter) Set(v uint32) { c.value = min(v, c.max) }

// Value returns the current count.
func (c *SatCounter) Value() uint32 { return c.value }

// AtMax reports whether the counter is saturated high.
func (c *SatCounter) AtMax() bool { return c.value == c.max }

// CounterTable is a table of n-bit saturating counters (width 1..8)
// packed at the smallest power-of-two slot width that holds one: 1-bit
// counters eight to a byte, 2-bit counters four, 3- and 4-bit counters
// two, wider counters one. That is the size a hardware table of such
// counters occupies. Counter i behaves exactly like a SatCounter of the
// same width. Direction predictors and the JRS table are CounterTables;
// the MRT's wider counters stay SatCounters.
//
// Counter i starts at bit i<<slotLog of the packed bit string: in byte
// bit>>3, at offset bit&7. A slot never straddles a byte, because the
// slot width divides 8. The methods mask slotLog with 3, so the compiler
// sees every shift bounded and emits bare shift instructions.
type CounterTable struct {
	packed  []uint8
	slotLog uint8 // log2 of the slot width in bits: 0..3
	max     uint8 // the saturation value, and the mask of one counter
}

// NewCounterTable returns a table of entries counters of the given width
// in bits (1..8), each starting at initial (clamped to range).
func NewCounterTable(entries int, widthBits uint, initial uint32) CounterTable {
	if widthBits == 0 || widthBits > 8 {
		panic("bitutil: CounterTable width out of range")
	}
	slotLog := uint8(bits.Len(widthBits - 1)) // 1→0, 2→1, 3..4→2, 5..8→3
	t := CounterTable{
		packed:  make([]uint8, (entries<<slotLog+7)>>3),
		slotLog: slotLog,
		max:     uint8(1<<widthBits - 1),
	}
	v := uint8(min(initial, uint32(t.max)))
	var fill uint8 // v replicated into every slot of a byte
	for off := 0; off < 8; off += 1 << slotLog {
		fill |= v << off
	}
	for i := range t.packed {
		t.packed[i] = fill
	}
	return t
}

// Inc increments counter i, saturating at the maximum.
func (t *CounterTable) Inc(i uint64) {
	bit := i << (t.slotLog & 3)
	if b := &t.packed[bit>>3]; *b>>(bit&7)&t.max != t.max {
		*b += 1 << (bit & 7)
	}
}

// Dec decrements counter i, saturating at zero.
func (t *CounterTable) Dec(i uint64) {
	bit := i << (t.slotLog & 3)
	if b := &t.packed[bit>>3]; *b>>(bit&7)&t.max != 0 {
		*b -= 1 << (bit & 7)
	}
}

// Reset sets counter i to zero.
func (t *CounterTable) Reset(i uint64) {
	bit := i << (t.slotLog & 3)
	t.packed[bit>>3] &^= t.max << (bit & 7)
}

// Value returns counter i's current count.
func (t *CounterTable) Value(i uint64) uint32 {
	bit := i << (t.slotLog & 3)
	return uint32(t.packed[bit>>3] >> (bit & 7) & t.max)
}

// MSB reports counter i's most significant bit: the "predict taken" bit
// of a 2-bit direction counter.
func (t *CounterTable) MSB(i uint64) bool { return t.Value(i) > uint32(t.max>>1) }

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

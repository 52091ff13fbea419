package bitutil

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSatCounterBounds(t *testing.T) {
	c := NewSatCounter(2, 0)
	for i := 0; i < 10; i++ {
		c.Inc()
	}
	if c.Value() != 3 {
		t.Fatalf("2-bit counter saturated at %d, want 3", c.Value())
	}
	if !c.AtMax() || !c.MSB() {
		t.Fatal("saturated counter should be AtMax with MSB set")
	}
	for i := 0; i < 10; i++ {
		c.Dec()
	}
	if c.Value() != 0 {
		t.Fatalf("counter under-saturated at %d", c.Value())
	}
	if c.MSB() {
		t.Fatal("zero counter must not have MSB set")
	}
}

func TestSatCounterSetClamps(t *testing.T) {
	c := NewSatCounter(4, 99)
	if c.Value() != 15 {
		t.Fatalf("initial clamp: %d", c.Value())
	}
	c.Set(100)
	if c.Value() != 15 {
		t.Fatalf("Set clamp: %d", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestSatCounterWidthPanics(t *testing.T) {
	for _, w := range []uint{0, 32} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("width %d did not panic", w)
				}
			}()
			NewSatCounter(w, 0)
		}()
	}
}

func TestLog2FixedExactPowers(t *testing.T) {
	for k := uint32(0); k < 20; k++ {
		got := Log2Fixed(1 << k)
		if got != k*LogScale {
			t.Fatalf("Log2Fixed(2^%d) = %d, want %d", k, got, k*LogScale)
		}
	}
}

// TestLog2FixedMitchellBound checks the classic Mitchell error bound: the
// approximation underestimates log2 by at most ~0.0861, plus up to 1/1024
// of fraction-truncation error when the characteristic exceeds the Q10
// fraction width.
func TestLog2FixedMitchellBound(t *testing.T) {
	if err := quick.Check(func(raw uint32) bool {
		v := raw%1_000_000 + 1
		e := Log2Error(v)
		return e >= -0.0001 && e <= 0.0861+1.0/1024+0.0001
	}, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestLog2FixedMonotonic(t *testing.T) {
	prev := Log2Fixed(1)
	for v := uint32(2); v < 5000; v++ {
		cur := Log2Fixed(v)
		if cur < prev {
			t.Fatalf("Log2Fixed not monotonic at %d: %d < %d", v, cur, prev)
		}
		prev = cur
	}
}

func TestLog2FixedZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Log2Fixed(0) did not panic")
		}
	}()
	Log2Fixed(0)
}

func TestEncodeRateBasics(t *testing.T) {
	if EncodeRate(100, 0) != 0 {
		t.Fatal("perfect bucket must encode to 0")
	}
	if EncodeRate(0, 50) != EncodedMax {
		t.Fatal("all-mispredict bucket must clamp to EncodedMax")
	}
	// 50% correct: -log2(0.5)*1024 = 1024.
	enc := EncodeRate(512, 512)
	if enc < 900 || enc > 1150 {
		t.Fatalf("EncodeRate(512,512) = %d, want ~1024", enc)
	}
}

// TestEncodeRateTracksExact compares the Mitchell-circuit encoding with the
// floating-point reference across the counter range: the two logs' errors
// partially cancel, keeping the difference within ~180 encoded units.
func TestEncodeRateTracksExact(t *testing.T) {
	if err := quick.Check(func(cRaw, mRaw uint32) bool {
		c := cRaw%1023 + 1
		m := mRaw % 63
		enc := EncodeRate(c, m)
		exact := ExactEncode(float64(c) / float64(c+m))
		d := int64(enc) - int64(exact)
		if d < 0 {
			d = -d
		}
		return d <= 180 || (enc == EncodedMax && exact >= EncodedMax-180)
	}, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestExactEncodeEdges(t *testing.T) {
	if ExactEncode(0) != EncodedMax || ExactEncode(-1) != EncodedMax {
		t.Fatal("non-positive probability must clamp to EncodedMax")
	}
	if ExactEncode(1) != 0 || ExactEncode(2) != 0 {
		t.Fatal("probability >= 1 must encode to 0")
	}
	if got := ExactEncode(0.5); got != 1024 {
		t.Fatalf("ExactEncode(0.5) = %d, want 1024", got)
	}
}

// TestEncodeDecodeRoundTrip checks that decoding an exact encoding
// recovers the probability within the quantization error.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	if err := quick.Check(func(raw uint32) bool {
		p := 0.07 + 0.92*float64(raw%10000)/10000
		enc := ExactEncode(p)
		back := DecodeProb(int64(enc))
		return math.Abs(back-p) < 0.001
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeProbEdges(t *testing.T) {
	if DecodeProb(0) != 1 || DecodeProb(-5) != 1 {
		t.Fatal("non-positive sum must decode to probability 1")
	}
	if p := DecodeProb(1024); math.Abs(p-0.5) > 1e-9 {
		t.Fatalf("DecodeProb(1024) = %v, want 0.5", p)
	}
	if p := DecodeProb(1 << 30); p > 1e-9 {
		t.Fatalf("huge sum should decode to ~0, got %v", p)
	}
}

func TestEncodeProbThreshold(t *testing.T) {
	// The paper's example: a 10% gating target encodes near 3400 (the
	// paper quotes 3321 under slightly different rounding).
	th := EncodeProbThreshold(0.10)
	if th < 3300 || th < 0 || th > 3500 {
		t.Fatalf("threshold for 10%% = %d, want ~3400", th)
	}
	if EncodeProbThreshold(1) != 0 {
		t.Fatal("threshold for certainty must be 0")
	}
	if EncodeProbThreshold(0) != math.MaxInt64 {
		t.Fatal("threshold for 0 must be unreachable")
	}
}

// TestThresholdConsistency: gating semantics — sum > threshold(p) iff
// decoded probability < p (within quantization).
func TestThresholdConsistency(t *testing.T) {
	for _, target := range []float64{0.02, 0.1, 0.2, 0.5, 0.9} {
		th := EncodeProbThreshold(target)
		// Just above the threshold decodes below target.
		if p := DecodeProb(th + 2); p >= target {
			t.Fatalf("target %v: DecodeProb(th+2)=%v not below target", target, p)
		}
		// Just below decodes at or above target.
		if p := DecodeProb(th - 2); p < target-0.002 {
			t.Fatalf("target %v: DecodeProb(th-2)=%v too low", target, p)
		}
	}
}

// TestDecodeProbTableExact checks DecodeProb's table path against
// math.Exp2 bit for bit on every sum it answers, and the fallback just
// past it.
func TestDecodeProbTableExact(t *testing.T) {
	for s := int64(1); s < decodeTableLimit+LogScale; s++ {
		got, want := DecodeProb(s), math.Exp2(-float64(s)/LogScale)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("DecodeProb(%d) = %v (%#x), math.Exp2 gives %v (%#x)", s, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

var decodeSink float64

// BenchmarkDecodeProb measures one decode over the sums probes produce.
func BenchmarkDecodeProb(b *testing.B) {
	for i := 0; i < b.N; i++ {
		decodeSink += DecodeProb(int64(i & (1<<16 - 1)))
	}
}

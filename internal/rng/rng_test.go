package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := NewStream(42, 0), NewStream(42, 0)
	for i := 0; i < 1000; i++ {
		if a.Uint32() != b.Uint32() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := NewStream(1, 0), NewStream(2, 0)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 equal outputs", same)
	}
}

func TestStreamsDiffer(t *testing.T) {
	a, b := NewStream(7, 1), NewStream(7, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different streams produced %d/100 equal outputs", same)
	}
}

func TestForkIndependence(t *testing.T) {
	// A child seeded from two draws of its parent, as workload's fork
	// seeds one, must not replay the parent.
	a := NewStream(9, 0)
	f := NewStream(a.Uint64(), a.Uint64())
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint32() == f.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("fork tracked parent: %d/100 equal", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewStream(3, 0)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewStream(1, 0).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewStream(4, 0)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewStream(5, 0)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %.4f, want ~0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewStream(6, 0)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		hits := 0
		const n = 100000
		for i := 0; i < n; i++ {
			if r.Bool(p) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-p) > 0.01 {
			t.Fatalf("Bool(%v) rate %.4f", p, got)
		}
	}
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewStream(7, 0)
	const p = 0.25
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += float64(r.Geometric(NewThreshold(p)))
	}
	mean := sum / n
	want := (1 - p) / p // failures before first success
	if math.Abs(mean-want) > 0.1 {
		t.Fatalf("Geometric(%v) mean %.3f, want ~%.3f", p, mean, want)
	}
	if r.Geometric(NewThreshold(1)) != 0 {
		t.Fatal("Geometric(1) must be 0")
	}
}

func TestRange(t *testing.T) {
	r := NewStream(8, 0)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Range(3, 7)
		if v < 3 || v > 7 {
			t.Fatalf("Range(3,7) = %d", v)
		}
		seen[v] = true
	}
	for v := 3; v <= 7; v++ {
		if !seen[v] {
			t.Fatalf("Range never produced %d", v)
		}
	}
}

func TestWeightedChoice(t *testing.T) {
	r := NewStream(9, 0)
	w := NewWeightedChoice([]float64{1, 0, 3})
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[w.Sample(r)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index sampled %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.2 {
		t.Fatalf("weight ratio %.2f, want ~3", ratio)
	}
}

func TestWeightedChoicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-total weights did not panic")
		}
	}()
	NewWeightedChoice([]float64{0, -1})
}

func TestUint32Uniformity(t *testing.T) {
	// Chi-squared over 16 buckets of the top nibble.
	r := NewStream(10, 0)
	var counts [16]int
	const n = 160000
	for i := 0; i < n; i++ {
		counts[r.Uint32()>>28]++
	}
	expected := float64(n) / 16
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 15 dof; 99.9th percentile ~37.7.
	if chi2 > 37.7 {
		t.Fatalf("chi-squared %.1f suggests non-uniform output", chi2)
	}
}

// refUint64 is Uint64 as first written: two sequential LCG steps.
func refUint64(r *RNG) uint64 {
	hi := r.Uint32()
	return uint64(hi)<<32 | uint64(r.Uint32())
}

// refBool is Bool as first written: a Float64 draw compared against p.
func refBool(r *RNG, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(refUint64(r)>>11)/(1<<53) < p
}

// refGeometric is Geometric as first written: one Float64 draw per trial,
// compared against p in floating point.
func refGeometric(r *RNG, p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		return 1 << 20
	}
	n := 0
	for !refBool(r, p) {
		n++
		if n >= 1<<20 {
			break
		}
	}
	return n
}

// FuzzGeometric checks the integer-domain draws against the float loop
// they replace: for any seed, stream and p, Geometric returns the same n
// and Bool the same outcome, and both leave the generator in the same
// state.
func FuzzGeometric(f *testing.F) {
	for _, p := range []float64{0.22, 0.5, 0.3, 0.1, 1.0 / 6, 1e-9, 0x1p-1074, 1 - 0x1p-53, 0, 1, -1, 2} {
		f.Add(uint64(1), uint64(0), p)
	}
	f.Add(uint64(42), uint64(0x5eed), math.NaN())
	f.Fuzz(func(t *testing.T, seed, stream uint64, p float64) {
		got, want := NewStream(seed, stream), NewStream(seed, stream)
		th := NewThreshold(p)
		for i := 0; i < 4; i++ {
			if g, w := got.Geometric(th), refGeometric(want, p); g != w || *got != *want {
				t.Fatalf("Geometric(%v) draw %d: got %d state %+v, want %d state %+v", p, i, g, *got, w, *want)
			}
			if g, w := got.Bool(p), refBool(want, p); g != w || *got != *want {
				t.Fatalf("Bool(%v) draw %d: got %v state %+v, want %v state %+v", p, i, g, *got, w, *want)
			}
		}
	})
}

// TestBelowTies drives Below through the tied-high-word path that random
// probabilities almost never reach: p is set to the next draw's own
// value k/2^53 (not below: Float64() == p) and to (k+1)/2^53 (below),
// whose bounds share the draw's high 32 bits.
func TestBelowTies(t *testing.T) {
	r := NewStream(11, 0)
	for i := 0; i < 10_000; i++ {
		peek := *r
		k := peek.Uint64() >> 11
		for _, p := range []float64{float64(k) / (1 << 53), float64(k+1) / (1 << 53)} {
			got, want := *r, *r
			if g, w := got.Bool(p), refBool(&want, p); g != w || got != want {
				t.Fatalf("draw %d: Bool(%v) = %v, want %v", i, p, g, w)
			}
		}
		r.Uint64()
	}
}

// BenchmarkGeometric measures one dependence-distance draw: Geometric at
// the bundled benchmarks' DepGeoP (0.22), about 4.5 trials per sample.
func BenchmarkGeometric(b *testing.B) {
	r := NewStream(1, 0)
	t := NewThreshold(0.22)
	n := 0
	for b.Loop() {
		n += r.Geometric(t)
	}
	_ = n
}

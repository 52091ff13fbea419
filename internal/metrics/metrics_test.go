package metrics

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"paco/internal/rng"
)

func TestReliabilityPerfectPredictor(t *testing.T) {
	var rel Reliability
	r := rng.NewStream(5, 0)
	for i := 0; i < 200000; i++ {
		p := float64(r.Intn(101)) / 100
		rel.Add(p, r.Bool(p))
	}
	if rms := rel.RMSError(); rms > 0.02 {
		t.Fatalf("perfect predictor RMS %.4f", rms)
	}
}

func TestReliabilityBiasedPredictor(t *testing.T) {
	var rel Reliability
	r := rng.NewStream(6, 0)
	// Predictor claims 0.9 but truth is 0.6: RMS should approach 0.3.
	for i := 0; i < 100000; i++ {
		rel.Add(0.9, r.Bool(0.6))
	}
	if rms := rel.RMSError(); math.Abs(rms-0.3) > 0.02 {
		t.Fatalf("biased predictor RMS %.4f, want ~0.3", rms)
	}
}

func TestReliabilityBinsAndClamps(t *testing.T) {
	var rel Reliability
	rel.Add(-0.5, true)
	rel.Add(1.7, false)
	rel.Add(0.254, true)
	if rel.Instances() != 3 {
		t.Fatalf("instances = %d", rel.Instances())
	}
	// -0.5 clamps to bin 0, 0.254 rounds to bin 25, 1.7 clamps to bin 100.
	want := []Point{{Predicted: 0, Observed: 100, Count: 1}, {Predicted: 25, Observed: 100, Count: 1}, {Predicted: 100, Observed: 0, Count: 1}}
	if got := rel.Points(); !slices.Equal(got, want) {
		t.Fatalf("points = %+v, want %+v", got, want)
	}
}

func TestReliabilityMerge(t *testing.T) {
	var a, b Reliability
	a.Add(0.5, true)
	b.Add(0.5, false)
	a.Merge(&b)
	if pts := a.Points(); len(pts) != 1 || pts[0] != (Point{Predicted: 50, Observed: 50, Count: 2}) {
		t.Fatalf("merged bins: %+v", pts)
	}
}

func TestReliabilityPoints(t *testing.T) {
	var rel Reliability
	rel.Add(0.10, true)
	rel.Add(0.10, false)
	rel.Add(0.90, true)
	pts := rel.Points()
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].Predicted != 10 || pts[0].Observed != 50 || pts[0].Count != 2 {
		t.Fatalf("point 0 = %+v", pts[0])
	}
	if pts[1].Predicted != 90 || pts[1].Observed != 100 {
		t.Fatalf("point 1 = %+v", pts[1])
	}
}

// TestRMSErrorBounds: RMS is always within [0, 1].
func TestRMSErrorBounds(t *testing.T) {
	if err := quick.Check(func(seeds []uint16) bool {
		var rel Reliability
		for _, s := range seeds {
			rel.Add(float64(s%101)/100, s%3 == 0)
		}
		rms := rel.RMSError()
		return rms >= 0 && rms <= 1
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHMWIPC(t *testing.T) {
	// Both threads at half their solo IPC: HMWIPC = 0.5.
	got := HMWIPC([]float64{2, 1}, []float64{1, 0.5})
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("HMWIPC = %v, want 0.5", got)
	}
	// Zero SMT IPC degrades to 0.
	if HMWIPC([]float64{1, 1}, []float64{1, 0}) != 0 {
		t.Fatal("zero thread IPC must give 0")
	}
}

func TestHMWIPCBalancesFairness(t *testing.T) {
	// Unfair allocation (one thread starved) must score below a fair one
	// with the same total throughput.
	fair := HMWIPC([]float64{1, 1}, []float64{0.5, 0.5})
	unfair := HMWIPC([]float64{1, 1}, []float64{0.9, 0.1})
	if unfair >= fair {
		t.Fatalf("unfair %.3f >= fair %.3f", unfair, fair)
	}
}

func TestHMWIPCPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched slices did not panic")
		}
	}()
	HMWIPC([]float64{1}, []float64{1, 2})
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.Row("alpha", 1.5)
	tb.Row("b", "x")
	s := tb.String()
	if !strings.Contains(s, "alpha") || !strings.Contains(s, "1.5000") {
		t.Fatalf("table output:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 { // header, rule, two rows
		t.Fatalf("table has %d lines", len(lines))
	}
}

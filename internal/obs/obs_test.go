package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

func TestRegistryRendering(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "Operations.")
	c.Add(3)
	r.GaugeFunc("test_depth", "Depth.", func() float64 { return 2.5 })
	r.GaugeFunc("test_live", "Live.", func() float64 { return 7 })
	v := r.CounterVec("test_outcomes_total", "Outcomes.", "status")
	v.With("ok").Add(2)
	v.With("err").Inc()
	r.Func("test_info", "gauge", "Info.", func(emit func(float64, ...Label)) {
		emit(1, L("version", "v1"), L("go", "go1.24"))
	})

	text := render(t, r)
	for _, want := range []string{
		"# HELP test_ops_total Operations.\n# TYPE test_ops_total counter\ntest_ops_total 3\n",
		"# TYPE test_depth gauge\ntest_depth 2.5\n",
		"test_live 7\n",
		// Vec series sorted by label value: err before ok.
		"test_outcomes_total{status=\"err\"} 1\ntest_outcomes_total{status=\"ok\"} 2\n",
		`test_info{version="v1",go="go1.24"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	if errs := LintExposition(strings.NewReader(text)); errs != nil {
		t.Errorf("registry output fails its own lint: %v", errs)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "x.")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a duplicate family did not panic")
		}
	}()
	r.GaugeFunc("dup_total", "y.", func() float64 { return 0 })
}

func TestCounterHistogramNilSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram observed")
	}
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("nil histogram quantile not NaN")
	}
	var v *HistogramVec
	v.With("x").Observe(1) // must not panic
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.05, 0.5, 2, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 102.6; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}

	text := render(t, r)
	for _, want := range []string{
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="0.1"} 2`,
		`test_latency_seconds_bucket{le="1"} 3`,
		`test_latency_seconds_bucket{le="10"} 4`,
		`test_latency_seconds_bucket{le="+Inf"} 5`,
		"test_latency_seconds_sum 102.6",
		"test_latency_seconds_count 5",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("histogram output missing %q:\n%s", want, text)
		}
	}

	// Median rank 2.5 of 5 falls in the first bucket (2 obs) boundary →
	// interpolates inside the second bucket.
	if q := h.Quantile(0.5); q < 0.1 || q > 1 {
		t.Errorf("p50 = %v, want within (0.1, 1]", q)
	}
	// p100 lands beyond the last finite bound and is clamped to it.
	if q := h.Quantile(1); q != 10 {
		t.Errorf("p100 = %v, want clamp to 10", q)
	}
	if !math.IsNaN((&Histogram{}).Quantile(0.5)) {
		t.Error("empty histogram quantile not NaN")
	}
}

func TestHistogramVec(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("test_route_seconds", "Route latency.", "route", []float64{1})
	v.With("/a").Observe(0.5)
	v.With("/b").Observe(2)
	v.With("/a").Observe(3)
	text := render(t, r)
	for _, want := range []string{
		`test_route_seconds_bucket{route="/a",le="1"} 1`,
		`test_route_seconds_bucket{route="/a",le="+Inf"} 2`,
		`test_route_seconds_count{route="/a"} 2`,
		`test_route_seconds_bucket{route="/b",le="+Inf"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("vec output missing %q:\n%s", want, text)
		}
	}
	if errs := LintExposition(strings.NewReader(text)); errs != nil {
		t.Errorf("vec output fails lint: %v", errs)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Func("test_esc", "gauge", "Escapes.", func(emit func(float64, ...Label)) {
		emit(1, L("v", "a\"b\\c\nd"))
	})
	text := render(t, r)
	want := `test_esc{v="a\"b\\c\nd"} 1`
	if !strings.Contains(text, want) {
		t.Fatalf("escaped label missing %q:\n%s", want, text)
	}
	if errs := LintExposition(strings.NewReader(text)); errs != nil {
		t.Fatalf("escaped output fails lint: %v", errs)
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_conc_seconds", "c.", []float64{1, 2})
	c := r.Counter("test_conc_total", "c.")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(1.5)
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 || c.Value() != 8000 {
		t.Fatalf("count = %d / %d, want 8000", h.Count(), c.Value())
	}
	if got := h.Sum(); math.Abs(got-12000) > 1e-6 {
		t.Fatalf("sum = %v, want 12000", got)
	}
}

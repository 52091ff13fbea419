package tsdb

import (
	"sync"
	"testing"
	"time"

	"paco/internal/obs"
)

func TestSampleAndQueryCounterRates(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("jobs_total", "jobs")
	st := New(Config{Registry: reg, Points: 16})

	st.SampleNow() // 0
	c.Add(10)
	st.SampleNow() // 10
	c.Add(30)
	st.SampleNow() // 40

	out := st.Query(Query{Family: "jobs_total"})
	if len(out) != 1 {
		t.Fatalf("series = %d, want 1", len(out))
	}
	s := out[0]
	if s.Type != "rate" {
		t.Fatalf("type = %q, want rate", s.Type)
	}
	// Three raw samples become two rate points; same-millisecond
	// samples (dt == 0) are skipped, so allow either.
	if len(s.Points) > 2 {
		t.Fatalf("points = %d, want <= 2", len(s.Points))
	}
	if s.Rate < 0 {
		t.Fatalf("window rate = %v, want >= 0", s.Rate)
	}
}

func TestQueryGaugeRollups(t *testing.T) {
	reg := obs.NewRegistry()
	var depth float64
	reg.GaugeFunc("depth", "queue depth", func() float64 { return depth })
	st := New(Config{Registry: reg, Points: 16})

	for _, v := range []float64{3, 1, 7, 5} {
		depth = v
		st.SampleNow()
	}
	out := st.Query(Query{Family: "depth"})
	if len(out) != 1 {
		t.Fatalf("series = %d, want 1", len(out))
	}
	s := out[0]
	if s.Min != 1 || s.Max != 7 || s.Avg != 4 || s.Last != 5 {
		t.Fatalf("rollups = min %v max %v avg %v last %v, want 1/7/4/5",
			s.Min, s.Max, s.Avg, s.Last)
	}
	if len(s.Points) != 4 {
		t.Fatalf("points = %d, want 4", len(s.Points))
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	reg := obs.NewRegistry()
	var val float64
	reg.GaugeFunc("v", "v", func() float64 { return val })
	st := New(Config{Registry: reg, Points: 4})

	for i := 0; i < 10; i++ {
		val = float64(i)
		st.SampleNow()
	}
	out := st.Query(Query{Family: "v"})
	if len(out) != 1 || len(out[0].Points) != 4 {
		t.Fatalf("got %+v, want one series with 4 points", out)
	}
	for i, p := range out[0].Points {
		if want := float64(6 + i); p.V != want {
			t.Fatalf("point %d = %v, want %v (oldest-first after wrap)", i, p.V, want)
		}
	}
}

func TestHistogramQuantileSeries(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("lat", "latency", []float64{0.1, 1, 10})
	st := New(Config{Registry: reg, Points: 16})

	for i := 0; i < 100; i++ {
		h.Observe(0.05)
	}
	st.SampleNow()

	for _, fam := range []string{"lat", "lat_p50", "lat_p99"} {
		out := st.Query(Query{Family: fam})
		if len(out) != 1 {
			t.Fatalf("family %s: series = %d, want 1", fam, len(out))
		}
	}
	p50 := st.Query(Query{Family: "lat_p50"})[0]
	if p50.Last <= 0 || p50.Last > 0.1 {
		t.Fatalf("p50 = %v, want in (0, 0.1]", p50.Last)
	}
}

func TestLabeledVecSeries(t *testing.T) {
	reg := obs.NewRegistry()
	v := reg.CounterVec("req_total", "requests", "route")
	st := New(Config{Registry: reg, Points: 16})

	v.With("/b").Inc()
	v.With("/a").Inc()
	st.SampleNow()
	v.With("/a").Add(5)
	st.SampleNow()

	out := st.Query(Query{Family: "req_total"})
	if len(out) != 2 {
		t.Fatalf("series = %d, want 2", len(out))
	}
	// Sorted by labels.
	if out[0].Labels != `{route="/a"}` || out[1].Labels != `{route="/b"}` {
		t.Fatalf("labels = %q, %q", out[0].Labels, out[1].Labels)
	}
	only := st.Query(Query{Family: "req_total", Labels: `{route="/b"}`})
	if len(only) != 1 || only[0].Labels != `{route="/b"}` {
		t.Fatalf("label filter returned %+v", only)
	}
}

func TestMaxSeriesBudget(t *testing.T) {
	reg := obs.NewRegistry()
	v := reg.CounterVec("c", "c", "k")
	st := New(Config{Registry: reg, MaxSeries: 2, Points: 4})

	v.With("a").Inc()
	v.With("b").Inc()
	v.With("c").Inc()
	st.SampleNow()

	series, dropped, samples := st.Stats()
	if series != 2 {
		t.Fatalf("series = %d, want 2", series)
	}
	if dropped == 0 {
		t.Fatalf("dropped = 0, want > 0")
	}
	if samples != 1 {
		t.Fatalf("samples = %d, want 1", samples)
	}
}

func TestSincePrunesOldPoints(t *testing.T) {
	reg := obs.NewRegistry()
	val := 1.0
	reg.GaugeFunc("v", "v", func() float64 { return val })
	st := New(Config{Registry: reg, Points: 16})

	st.SampleNow()
	cut := time.Now().Add(time.Millisecond)
	time.Sleep(2 * time.Millisecond)
	val = 2
	st.SampleNow()

	out := st.Query(Query{Family: "v", Since: cut})
	if len(out) != 1 || len(out[0].Points) != 1 || out[0].Points[0].V != 2 {
		t.Fatalf("since query returned %+v, want just the second point", out)
	}
}

// TestConcurrentSampleQuery exercises the sample and query paths from
// many goroutines at once; run under -race this is the store's
// thread-safety proof.
func TestConcurrentSampleQuery(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("c", "c")
	h := reg.Histogram("h", "h", []float64{1, 10})
	v := reg.CounterVec("cv", "cv", "k")
	st := New(Config{Registry: reg, Points: 32})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				h.Observe(2)
				v.With("x").Inc()
				st.SampleNow()
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st.Query(Query{})
				st.Query(Query{Family: "h_p99"})
				st.Stats()
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestStartCloseLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	reg.GaugeFunc("v", "v", func() float64 { return 1 })
	st := New(Config{Registry: reg, Interval: time.Millisecond, Points: 8})
	st.Start()
	st.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, _, samples := st.Stats(); samples >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background sampler took no samples")
		}
		time.Sleep(time.Millisecond)
	}
	st.Close()
	st.Close() // idempotent
	_, _, n := st.Stats()
	time.Sleep(5 * time.Millisecond)
	if _, _, after := st.Stats(); after != n {
		t.Fatalf("sampler still running after Close: %d -> %d", n, after)
	}
}

// TestSamplingAllocFree pins the steady-state sampling pass at zero
// allocations for a registry of push-based instruments — the tsdb side
// of the package's zero-cost guarantee. (Callback-backed families are
// excluded by design: their cost is their callbacks'.)
func TestSamplingAllocFree(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("c_total", "c")
	h := reg.Histogram("h", "h", []float64{0.1, 1, 10})
	cv := reg.CounterVec("cv_total", "cv", "route")
	hv := reg.HistogramVec("hv", "hv", "stage", []float64{1, 10})

	c.Add(3)
	h.Observe(0.5)
	cv.With("/a").Inc()
	cv.With("/b").Inc()
	hv.With("sim").Observe(2)

	st := New(Config{Registry: reg, Points: 64})
	// Warm up: create every ring (first sighting allocates) and fill
	// the rings past capacity so pushes take the overwrite path.
	for i := 0; i < 128; i++ {
		st.SampleNow()
	}
	avg := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(1)
		st.SampleNow()
	})
	if avg != 0 {
		t.Fatalf("steady-state sampling pass allocates %.1f times, want 0", avg)
	}
}

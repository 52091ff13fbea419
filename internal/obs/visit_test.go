package obs

import (
	"testing"
	"time"
)

type collectVisitor struct{ got []SeriesSample }

func (c *collectVisitor) Sample(s SeriesSample) { c.got = append(c.got, s) }

func TestVisitSamplesCoversEveryFamilyKind(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	r.GaugeFunc("gf", "gf", func() float64 { return 42 })
	r.Func("f", "counter", "f", func(emit func(v float64, labels ...Label)) {
		emit(7, L("k", "v"))
	})
	cv := r.CounterVec("cv_total", "cv", "route")
	h := r.Histogram("h", "h", []float64{1, 10})
	hv := r.HistogramVec("hv", "hv", "stage", []float64{1, 10})

	c.Add(5)
	cv.With("/b").Add(2)
	cv.With("/a").Inc()
	h.Observe(3)
	h.Observe(3)
	hv.With("sim").Observe(0.5)

	var v collectVisitor
	r.VisitSamples(&v)

	byKey := map[string]SeriesSample{}
	for _, s := range v.got {
		byKey[s.Family+s.Labels] = s
	}
	want := []struct {
		key  string
		typ  string
		val  float64
		hist bool
	}{
		{"c_total", "counter", 5, false},
		{"gf", "gauge", 42, false},
		{`f{k="v"}`, "counter", 7, false},
		{`cv_total{route="/a"}`, "counter", 1, false},
		{`cv_total{route="/b"}`, "counter", 2, false},
		{"h", "histogram", 2, true},
		{`hv{stage="sim"}`, "histogram", 1, true},
	}
	if len(v.got) != len(want) {
		t.Fatalf("visited %d series, want %d: %+v", len(v.got), len(want), v.got)
	}
	for _, w := range want {
		s, ok := byKey[w.key]
		if !ok {
			t.Fatalf("series %q not visited", w.key)
		}
		if s.Type != w.typ || s.Value != w.val || (s.Hist != nil) != w.hist {
			t.Fatalf("series %q = %+v, want type %s value %v hist %v",
				w.key, s, w.typ, w.val, w.hist)
		}
	}
	// Vec series visit in label order.
	var order []string
	for _, s := range v.got {
		if s.Family == "cv_total" {
			order = append(order, s.Labels)
		}
	}
	if len(order) != 2 || order[0] != `{route="/a"}` || order[1] != `{route="/b"}` {
		t.Fatalf("cv series order = %v, want sorted by label value", order)
	}
}

func TestVisitSamplesAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	cv := r.CounterVec("cv_total", "cv", "route")
	h := r.Histogram("h", "h", []float64{1, 10})
	hv := r.HistogramVec("hv", "hv", "stage", []float64{1, 10})
	c.Inc()
	cv.With("/a").Inc()
	h.Observe(1)
	hv.With("x").Observe(1)

	var v nopVisitor
	avg := testing.AllocsPerRun(1000, func() { r.VisitSamples(&v) })
	if avg != 0 {
		t.Fatalf("VisitSamples over push instruments allocates %.1f times, want 0", avg)
	}
}

type nopVisitor struct{ n int }

func (v *nopVisitor) Sample(SeriesSample) { v.n++ }

func TestRecorderDropped(t *testing.T) {
	rec := NewRecorder(recorderStripes) // one slot per stripe
	if rec.Dropped() != 0 {
		t.Fatalf("fresh recorder Dropped = %d, want 0", rec.Dropped())
	}
	for i := 0; i < 3*recorderStripes; i++ {
		s := rec.Start("t", "k", "n", 0)
		s.End("")
	}
	// Ring capacity is recorderStripes; everything beyond was dropped.
	if got, want := rec.Dropped(), uint64(2*recorderStripes); got != want {
		t.Fatalf("Dropped = %d, want %d", got, want)
	}
	if rec.Recorded() != 3*recorderStripes {
		t.Fatalf("Recorded = %d, want %d", rec.Recorded(), 3*recorderStripes)
	}
}

func TestSnapshotSinceFilter(t *testing.T) {
	rec := NewRecorder(64)
	s1 := rec.Start("t", "k", "old", 0)
	s1.End("")
	all := rec.Snapshot(Filter{})
	if len(all) != 1 {
		t.Fatalf("snapshot = %d spans, want 1", len(all))
	}
	cut := all[0].End
	time.Sleep(time.Millisecond)
	s2 := rec.Start("t", "k", "new", 0)
	s2.End("")

	got := rec.Snapshot(Filter{Since: cut})
	if len(got) != 1 || got[0].Name != "new" {
		t.Fatalf("since filter returned %+v, want just the newer span", got)
	}
	// Strictly-after: passing the newest End returns nothing, so a
	// poller never sees the same span twice.
	newest := rec.Snapshot(Filter{})
	if n := rec.Snapshot(Filter{Since: newest[len(newest)-1].End}); len(n) != 0 {
		t.Fatalf("since = newest end returned %d spans, want 0", len(n))
	}
}

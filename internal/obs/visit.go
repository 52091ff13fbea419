package obs

// Scrape-free sampling: VisitSamples walks every registered family and
// hands the visitor one SeriesSample per live series. It is the
// foundation the tsdb package samples through — unlike WritePrometheus
// it renders nothing, and for push-based instruments (Counter,
// CounterVec, Histogram, HistogramVec) the walk performs zero
// allocations in steady state: label strings are cached when a series
// is created, samples are passed by value, and no intermediate slices
// are built. Callback-backed families (CounterFunc/GaugeFunc/Func) cost
// whatever their callbacks cost.

// SeriesSample is one series' current value as seen by VisitSamples.
type SeriesSample struct {
	// Family is the metric family name (e.g. "paco_jobs_total").
	Family string
	// Type is the family type: "counter", "gauge", or "histogram".
	Type string
	// Labels is the rendered label set, `{k="v",...}` or "" for an
	// unlabeled series — already in exposition form so consumers can key
	// on Family+Labels without re-rendering.
	Labels string
	// Value is the series value: the count for counters, the level for
	// gauges, and the observation count for histograms.
	Value float64
	// Hist is non-nil for histogram series: the live histogram, so
	// consumers can derive Sum()/Quantile(q) without allocating.
	Hist *Histogram
}

// SampleVisitor receives one SeriesSample per live series from
// VisitSamples. It is an interface rather than a func so implementors
// can be visited without a closure allocation.
type SampleVisitor interface {
	Sample(s SeriesSample)
}

// VisitSamples walks every family in registration order and calls
// v.Sample once per live series. The registry lock is held for the
// duration: visitors must be quick and must not register new families.
func (r *Registry) VisitSamples(v SampleVisitor) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.families {
		f.visit(v)
	}
}

func (c *Counter) visit(v SampleVisitor) {
	v.Sample(SeriesSample{Family: c.name, Type: "counter", Value: float64(c.v.Load())})
}

func (f *funcFamily) visit(v SampleVisitor) {
	f.collect(func(val float64, labels ...Label) {
		v.Sample(SeriesSample{Family: f.name, Type: f.typ, Labels: formatLabels(labels), Value: val})
	})
}

func (v *CounterVec) visit(vis SampleVisitor) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, s := range v.ordered {
		vis.Sample(SeriesSample{Family: v.name, Type: "counter", Labels: s.labels, Value: float64(s.c.v.Load())})
	}
}

func (h *Histogram) visit(v SampleVisitor) {
	v.Sample(SeriesSample{Family: h.name, Type: "histogram",
		Value: float64(h.count.Load()), Hist: h})
}

func (v *HistogramVec) visit(vis SampleVisitor) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, s := range v.ordered {
		vis.Sample(SeriesSample{Family: v.name, Type: "histogram", Labels: s.labelStr,
			Value: float64(s.h.count.Load()), Hist: s.h})
	}
}

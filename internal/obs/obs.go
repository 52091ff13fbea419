// Package obs is paco's observability substrate: a stdlib-only metrics
// registry rendering Prometheus text exposition format, cheap timed
// spans collected into a lock-striped ring-buffer flight recorder, and
// trace-ID helpers that correlate one job's work across processes.
//
// Three design rules shape the package:
//
//   - Instrumentation must cost nothing when disabled. Every hot-path
//     entry point is nil-safe — Observe on a nil *Histogram, Start on a
//     nil *Recorder, End on a disabled Span are all no-ops that perform
//     zero allocations (enforced by AllocsPerRun tests), so PR 2's
//     allocation-free kernel guarantee survives instrumentation.
//   - Scrapes are read-only. Gauge and counter families may be backed
//     by live callbacks (CounterFunc/GaugeFunc/Func) so /metrics renders
//     current state without the instrumented code pushing samples.
//   - Output is deterministic: families render in registration order,
//     labeled series render sorted by label value, and every family is
//     preceded by exactly one HELP and one TYPE line — the properties
//     LintExposition checks.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// family is one named metric family: HELP/TYPE metadata, a sample
// writer, and a sample visitor. Families render themselves so plain,
// labeled, callback-backed, and histogram families can share one
// registry.
type family interface {
	meta() (name, help, typ string)
	write(w *bufio.Writer)
	visit(v SampleVisitor)
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Register families at construction time (methods
// panic on duplicate names — a programming error); Observe/Add from
// any goroutine; render with WritePrometheus.
type Registry struct {
	mu       sync.Mutex
	families []family
	names    map[string]struct{}
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]struct{})}
}

func (r *Registry) register(f family) {
	name, _, _ := f.meta()
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.names[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric family %q", name))
	}
	r.names[name] = struct{}{}
	r.families = append(r.families, f)
}

// WritePrometheus renders every registered family in registration
// order: # HELP, # TYPE, then the family's samples.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		name, help, typ := f.meta()
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		f.write(bw)
	}
	return bw.Flush()
}

// validMetricName reports whether name matches the Prometheus metric
// name grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validLabelName reports whether name matches [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// Label is one label pair of a sample.
type Label struct{ Key, Value string }

// L builds a Label — sugar for Func collectors.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// formatLabels renders {k="v",...}; empty labels render as "".
func formatLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders a sample value: integers without a fraction,
// everything else shortest-round-trip.
func formatValue(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writeSample(w *bufio.Writer, name, labels string, v float64) {
	w.WriteString(name)
	w.WriteString(labels)
	w.WriteByte(' ')
	w.WriteString(formatValue(v))
	w.WriteByte('\n')
}

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// Counter registers and returns a counter family with one unlabeled
// series.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(c)
	return c
}

// Inc adds one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Nil-safe.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) meta() (string, string, string) { return c.name, c.help, "counter" }
func (c *Counter) write(w *bufio.Writer)          { writeSample(w, c.name, "", float64(c.v.Load())) }

// funcFamily backs CounterFunc/GaugeFunc/Func: samples are produced by a
// callback at scrape time, so the instrumented code never pushes.
type funcFamily struct {
	name, help, typ string
	collect         func(emit func(v float64, labels ...Label))
}

func (f *funcFamily) meta() (string, string, string) { return f.name, f.help, f.typ }
func (f *funcFamily) write(w *bufio.Writer) {
	f.collect(func(v float64, labels ...Label) {
		writeSample(w, f.name, formatLabels(labels), v)
	})
}

// CounterFunc registers a counter family whose single series is read
// from fn at scrape time.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&funcFamily{name: name, help: help, typ: "counter",
		collect: func(emit func(float64, ...Label)) { emit(fn()) }})
}

// GaugeFunc registers a gauge family whose single series is read from
// fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&funcFamily{name: name, help: help, typ: "gauge",
		collect: func(emit func(float64, ...Label)) { emit(fn()) }})
}

// Func registers a family (typ "counter" or "gauge") whose series —
// possibly several, each with its own labels — are produced by collect
// at scrape time. collect must emit deterministically ordered samples.
func (r *Registry) Func(name, typ, help string, collect func(emit func(v float64, labels ...Label))) {
	if typ != "counter" && typ != "gauge" {
		panic(fmt.Sprintf("obs: Func type must be counter or gauge, got %q", typ))
	}
	r.register(&funcFamily{name: name, help: help, typ: typ, collect: collect})
}

// counterSeries is one labeled series of a CounterVec, with its
// exposition label string rendered once at creation so renders and
// VisitSamples walks never rebuild it.
type counterSeries struct {
	key    string // values joined with \xff — the sort key
	labels string // rendered {k="v",...}
	c      *Counter
}

// CounterVec is a counter family with labeled series, created on first
// use and rendered sorted by label values.
type CounterVec struct {
	name, help string
	labels     []string

	mu      sync.Mutex
	m       map[string]*counterSeries
	ordered []*counterSeries // sorted by key, maintained on insert
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic("obs: CounterVec needs at least one label")
	}
	for _, l := range labels {
		if !validLabelName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q", l))
		}
	}
	v := &CounterVec{name: name, help: help, labels: labels, m: make(map[string]*counterSeries)}
	r.register(v)
	return v
}

// With returns the series for the given label values (one per declared
// label, in order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %s takes %d label values, got %d", v.name, len(v.labels), len(values)))
	}
	// The key is built on the stack; only a new series copies it.
	var buf [128]byte
	key := buf[:0]
	for i, value := range values {
		if i > 0 {
			key = append(key, '\xff')
		}
		key = append(key, value...)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	s := v.m[string(key)]
	if s == nil {
		key := string(key)
		labels := make([]Label, len(v.labels))
		for i := range v.labels {
			labels[i] = Label{Key: v.labels[i], Value: values[i]}
		}
		s = &counterSeries{key: key, labels: formatLabels(labels), c: &Counter{}}
		v.m[key] = s
		at := sort.Search(len(v.ordered), func(i int) bool { return v.ordered[i].key >= key })
		v.ordered = append(v.ordered, nil)
		copy(v.ordered[at+1:], v.ordered[at:])
		v.ordered[at] = s
	}
	return s.c
}

func (v *CounterVec) meta() (string, string, string) { return v.name, v.help, "counter" }
func (v *CounterVec) write(w *bufio.Writer) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, s := range v.ordered {
		writeSample(w, v.name, s.labels, float64(s.c.v.Load()))
	}
}

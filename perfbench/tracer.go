package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans from the benchmark's own code around each call
// into a layer's public functions. Spans stay in memory until the run
// ends. A nil *tracer records nothing, so untimed code paths take the
// same branches traced or not.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

// span is one timed region. Spans caused by one request share Trace;
// Parent is the ID of the enclosing span (0 for a root).
type span struct {
	Trace  uint64  `json:"trace"`
	ID     uint64  `json:"id"`
	Parent uint64  `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a span that has started and not yet ended.
type open struct {
	t     *tracer
	s     span
	start time.Time
}

// begin starts a span; parent is the enclosing span's ID or 0. The
// trace ID of a root span is its own ID.
func (t *tracer) begin(trace, parent uint64, name string) *open {
	if t == nil {
		return nil
	}
	id := t.nextID.Add(1)
	if trace == 0 {
		trace = id
	}
	now := time.Now()
	return &open{t: t, start: now, s: span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: now.Sub(t.t0).Seconds()}}
}

func (o *open) id() uint64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *open) trace() uint64 {
	if o == nil {
		return 0
	}
	return o.s.Trace
}

func (o *open) end() {
	if o == nil {
		return
	}
	o.s.End = time.Since(o.t.t0).Seconds()
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// spanStat is the per-name summary of the spans a run recorded.
type spanStat struct {
	Name  string
	Count int
	Total float64 // seconds, summed over spans
	Self  float64 // seconds not covered by a child span
}

// summary folds the recorded spans by name. A span's self time is its
// duration minus the union of its children's intervals, so concurrent
// children are not subtracted twice.
func (t *tracer) summary() []spanStat {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[uint64][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	byName := map[string]*spanStat{}
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.Total += d
		st.Self += d - covered(children[s.ID], s.Start, s.End)
	}
	out := make([]spanStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]float64, lo, hi float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curLo, curHi := 0.0, lo, lo
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	return total + curHi - curLo
}

// write dumps every span as JSON lines and prints the per-name self-time
// table to w.
func (t *tracer) write(path string, w io.Writer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "spans written to %s\n", path)
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, st := range t.summary() {
		fmt.Fprintf(w, "%-28s %8d %12.4f %12.4f\n", st.Name, st.Count, st.Total, st.Self)
	}
	return nil
}

// timedTransport times a federation worker's calls to the coordinator:
// lease polls, renewals and result posts. One instance serves one
// worker, whose lease → execute → post loop is sequential, so the time
// from a granted lease to the start of its result post is the shard's
// time on the worker.
type timedTransport struct {
	base   http.RoundTripper
	tr     *tracer
	m      *fedTiming
	mu     sync.Mutex
	leased time.Time
}

// fedTiming aggregates the lease protocol's client-side timings across
// workers.
type fedTiming struct {
	polls, grants atomic.Int64
	leaseRTT      samples // ms, every poll
	resultRTT     samples // ms
	shard         samples // s, lease granted → result post
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	kind := "renew"
	switch {
	case strings.HasSuffix(req.URL.Path, "/lease"):
		kind = "lease"
	case strings.HasSuffix(req.URL.Path, "/result"):
		kind = "result"
		t.mu.Lock()
		if !t.leased.IsZero() {
			t.m.shard.add(time.Since(t.leased).Seconds())
			t.leased = time.Time{}
		}
		t.mu.Unlock()
	}
	sp := t.tr.begin(0, 0, "fed."+kind)
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	sp.end()
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	switch kind {
	case "lease":
		t.m.polls.Add(1)
		t.m.leaseRTT.add(ms)
		if err == nil && resp.StatusCode == http.StatusOK {
			t.m.grants.Add(1)
			t.mu.Lock()
			t.leased = time.Now()
			t.mu.Unlock()
		}
	case "result":
		t.m.resultRTT.add(ms)
	}
	return resp, err
}

package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Spans and the flight recorder.
//
// A Span is a cheap timed region: Start captures a clock reading and an
// ID, End copies the finished record into a lock-striped ring buffer —
// the flight recorder — where it stays until overwritten by newer
// spans. The recorder answers "what did the last campaign actually do"
// after the fact: the server exposes a Snapshot at GET /debug/flight,
// filterable by kind and trace, and the servertest federation asserts a
// complete lease→result chain for every shard from it.
//
// Spans are values, not pointers: Start returns a Span by value, End is
// a plain struct copy into a pre-sized ring slot, and a disabled span
// (nil *Recorder) is a zero struct whose methods no-op — so the
// instrumented per-cell path performs zero allocations whether or not a
// recorder is attached (enforced by AllocsPerRun tests).

// maxSpanAttrs bounds per-span attributes; Set calls beyond it are
// dropped. Fixed so spans never allocate.
const maxSpanAttrs = 6

// Attr is one span attribute.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// record is the compact in-ring representation of a finished span.
type record struct {
	id, parent uint64
	trace      string
	kind, name string
	start, end time.Time
	err        string
	attrs      [maxSpanAttrs]Attr
	nattrs     int
}

// SpanRecord is the exported, JSON-friendly form of a finished span —
// what GET /debug/flight returns.
type SpanRecord struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  string `json:"trace,omitempty"`
	Kind   string `json:"kind"`
	Name   string `json:"name"`

	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// DurationMS is End - Start in milliseconds, precomputed for
	// consumers that only aggregate.
	DurationMS float64 `json:"duration_ms"`

	Err   string `json:"error,omitempty"`
	Attrs []Attr `json:"attrs,omitempty"`
}

// Attr returns the value of the named attribute ("" when absent).
func (sr *SpanRecord) Attr(key string) string {
	for _, a := range sr.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// stripe is one lock-striped ring segment.
type stripe struct {
	mu      sync.Mutex
	buf     []record
	next    int    // next write position
	seen    uint64 // spans ever written to this stripe
	dropped uint64 // spans overwritten before ever being read out
}

const recorderStripes = 8

// Recorder is the flight recorder: finished spans land in one of
// recorderStripes ring segments (selected by span ID, so concurrent
// End calls rarely contend on one lock) and survive until the ring
// wraps. A nil *Recorder is a valid, disabled recorder.
type Recorder struct {
	stripes [recorderStripes]stripe
	nextID  atomic.Uint64
	active  atomic.Int64
}

// NewRecorder builds a flight recorder retaining up to capacity spans
// (<= 0 selects 4096), split evenly across the lock stripes.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 4096
	}
	per := (capacity + recorderStripes - 1) / recorderStripes
	if per < 1 {
		per = 1
	}
	r := &Recorder{}
	for i := range r.stripes {
		r.stripes[i].buf = make([]record, 0, per)
	}
	return r
}

// Span is an in-flight timed region. The zero Span (and any Span from a
// nil Recorder) is disabled: all methods no-op.
type Span struct {
	rec        *Recorder
	id, parent uint64
	trace      string
	kind, name string
	start      time.Time
	attrs      [maxSpanAttrs]Attr
	nattrs     int
}

// Start opens a span. trace correlates spans across processes (see
// NewTraceID), kind groups spans for filtering ("job", "shard.lease",
// "cell", ...), name identifies the instance, and parent (0 for roots)
// links the span into its causal chain. Nil-safe: a nil Recorder
// returns a disabled Span.
func (r *Recorder) Start(trace, kind, name string, parent uint64) Span {
	if r == nil {
		return Span{}
	}
	r.active.Add(1)
	return Span{
		rec:    r,
		id:     r.nextID.Add(1),
		parent: parent,
		trace:  trace,
		kind:   kind,
		name:   name,
		start:  time.Now(),
	}
}

// ID returns the span's ID (0 when disabled), for parenting children.
func (s *Span) ID() uint64 { return s.id }

// Set attaches a key=value attribute; attributes beyond maxSpanAttrs
// are dropped. No-op on a disabled span.
func (s *Span) Set(key, value string) {
	if s.rec == nil || s.nattrs >= maxSpanAttrs {
		return
	}
	s.attrs[s.nattrs] = Attr{Key: key, Value: value}
	s.nattrs++
}

// End finishes the span and commits it to the flight recorder. errMsg
// non-empty marks the span failed. No-op on a disabled span; a second
// End is also a no-op.
func (s *Span) End(errMsg string) {
	rec := s.rec
	if rec == nil {
		return
	}
	s.rec = nil
	rec.active.Add(-1)
	st := &rec.stripes[s.id%recorderStripes]
	st.mu.Lock()
	r := record{
		id: s.id, parent: s.parent,
		trace: s.trace, kind: s.kind, name: s.name,
		start: s.start, end: time.Now(),
		err:    errMsg,
		nattrs: s.nattrs,
	}
	r.attrs = s.attrs
	if len(st.buf) < cap(st.buf) {
		st.buf = append(st.buf, r)
	} else {
		st.buf[st.next] = r
		st.dropped++
	}
	st.next = (st.next + 1) % cap(st.buf)
	st.seen++
	st.mu.Unlock()
}

// ErrString renders an error for Span.End: "" for nil.
func ErrString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// Active reports spans started but not yet ended — the "is anything
// still unfinished" gauge the CI flight check reads.
func (r *Recorder) Active() int64 {
	if r == nil {
		return 0
	}
	return r.active.Load()
}

// Recorded reports how many spans have ever been committed.
func (r *Recorder) Recorded() uint64 {
	if r == nil {
		return 0
	}
	var total uint64
	for i := range r.stripes {
		st := &r.stripes[i]
		st.mu.Lock()
		total += st.seen
		st.mu.Unlock()
	}
	return total
}

// Dropped reports how many finished spans the ring has overwritten —
// the obs_spans_dropped_total counter. A nonzero value means the ring
// wrapped and /debug/flight no longer holds the full history.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	var total uint64
	for i := range r.stripes {
		st := &r.stripes[i]
		st.mu.Lock()
		total += st.dropped
		st.mu.Unlock()
	}
	return total
}

// Capacity reports how many finished spans the ring retains.
func (r *Recorder) Capacity() int {
	if r == nil {
		return 0
	}
	n := 0
	for i := range r.stripes {
		n += cap(r.stripes[i].buf)
	}
	return n
}

// Filter selects spans from a Snapshot. Zero fields match everything.
type Filter struct {
	// Kind, when nonempty, keeps only spans of that kind.
	Kind string
	// Trace, when nonempty, keeps only spans of that trace.
	Trace string
	// Since, when nonzero, keeps only spans that ended strictly after
	// it — pass the End of the last span already seen to poll the ring
	// incrementally.
	Since time.Time
	// Limit, when > 0, keeps only the most recent Limit spans (after
	// the other filters).
	Limit int
}

// Snapshot returns the retained finished spans matching f, oldest
// first (by end time, span ID breaking ties).
func (r *Recorder) Snapshot(f Filter) []SpanRecord {
	if r == nil {
		return nil
	}
	var recs []record
	for i := range r.stripes {
		st := &r.stripes[i]
		st.mu.Lock()
		for j := range st.buf {
			rec := &st.buf[j]
			if f.Kind != "" && rec.kind != f.Kind {
				continue
			}
			if f.Trace != "" && rec.trace != f.Trace {
				continue
			}
			if !f.Since.IsZero() && !rec.end.After(f.Since) {
				continue
			}
			recs = append(recs, *rec)
		}
		st.mu.Unlock()
	}
	sort.Slice(recs, func(i, j int) bool {
		if !recs[i].end.Equal(recs[j].end) {
			return recs[i].end.Before(recs[j].end)
		}
		return recs[i].id < recs[j].id
	})
	if f.Limit > 0 && len(recs) > f.Limit {
		recs = recs[len(recs)-f.Limit:]
	}
	out := make([]SpanRecord, len(recs))
	for i := range recs {
		rec := &recs[i]
		sr := SpanRecord{
			ID: rec.id, Parent: rec.parent,
			Trace: rec.trace, Kind: rec.kind, Name: rec.name,
			Start:      rec.start,
			End:        rec.end,
			DurationMS: rec.end.Sub(rec.start).Seconds() * 1e3,
			Err:        rec.err,
		}
		if rec.nattrs > 0 {
			sr.Attrs = append([]Attr(nil), rec.attrs[:rec.nattrs]...)
		}
		out[i] = sr
	}
	return out
}

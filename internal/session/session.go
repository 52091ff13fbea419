// Package session is the streaming counterpart of a campaign cell: a
// live estimator set fed by trace events as they arrive, with rolling
// P(goodpath)/reliability scores readable at any point. Campaigns and
// paco-trace replay answer "what would the estimator have said over this
// whole workload"; a session answers "what does it say right now" —
// the shape the HPC-anomaly-detection and BayesPerf consumers in
// PAPERS.md actually have, where branch/counter events arrive as a
// stream and confidence must be read mid-flight.
//
// A Session itself is a single-goroutine state machine (the sharded
// Table in table.go provides the concurrent, bounded, evictable service
// view). Events are internal/trace records — the same model paco-trace
// files use — so a recorded trace pipes straight into a session, and the
// package guarantees the round trip: streaming a trace through Apply
// yields byte-identical final scores to offline Replay of the same file.
package session

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"paco/internal/core"
	"paco/internal/metrics"
	"paco/internal/trace"
)

// Estimator kinds a session can host. The set mirrors paco-trace
// -estimator: the perceptron stratifier is a recording-time machine
// configuration (it changes the MDC values baked into the event stream),
// not an estimator, so it has no session kind.
const (
	KindPaCo      = "paco"      // dynamic MRT (the paper's design)
	KindStatic    = "static"    // Appendix A static-profile MRT
	KindPerBranch = "perbranch" // Appendix A per-branch MRT
	KindCount     = "count"     // JRS threshold-and-count baseline
)

// DefaultCountThreshold is the JRS confidence threshold a count
// estimator defaults to (the paper's conventional best).
const DefaultCountThreshold = 3

// EstimatorSpec selects one estimator in a session.
type EstimatorSpec struct {
	// Kind is one of paco, static, perbranch, count.
	Kind string `json:"kind"`
	// Refresh is the PaCo MRT refresh period in cycles (paco only;
	// zero selects core.DefaultRefreshPeriod).
	Refresh uint64 `json:"refresh,omitempty"`
	// Threshold is the JRS confidence threshold (count only; zero
	// selects DefaultCountThreshold).
	Threshold uint32 `json:"threshold,omitempty"`
}

// Spec configures a session: the estimator set every event fans out to.
// The zero Spec is valid and selects a single default PaCo estimator.
type Spec struct {
	Estimators []EstimatorSpec `json:"estimators,omitempty"`
}

// Normalized returns the spec with defaults applied and kind-irrelevant
// knobs cleared, or an error for unknown kinds. Specs that normalize
// equal are the same session configuration and share a Key — the
// content-addressing contract.
func (s Spec) Normalized() (Spec, error) {
	ests := s.Estimators
	if len(ests) == 0 {
		ests = []EstimatorSpec{{Kind: KindPaCo}}
	}
	out := Spec{Estimators: make([]EstimatorSpec, len(ests))}
	for i, e := range ests {
		kind := strings.ToLower(strings.TrimSpace(e.Kind))
		n := EstimatorSpec{Kind: kind}
		switch kind {
		case KindPaCo:
			n.Refresh = e.Refresh
			if n.Refresh == 0 {
				n.Refresh = core.DefaultRefreshPeriod
			}
		case KindStatic, KindPerBranch:
			// No knobs.
		case KindCount:
			n.Threshold = e.Threshold
			if n.Threshold == 0 {
				n.Threshold = DefaultCountThreshold
			}
		default:
			return Spec{}, fmt.Errorf("session: unknown estimator kind %q (want paco, static, perbranch, or count)", e.Kind)
		}
		out.Estimators[i] = n
	}
	return out, nil
}

// keyDomain separates session keys from every other SHA-256 use in the
// tree (cache keys, shard IDs, scenario hashes).
const keyDomain = "paco/session/v1"

// Key returns the spec's content address: a hex SHA-256 over the
// normalized spec, so respellings of the same configuration (estimator
// case, explicit defaults) collapse to one key. Sessions are cheap to
// open, but the key lets clients recognize an equivalent spec without
// diffing JSON — the same economics as campaign shard addresses.
func (s Spec) Key() (string, error) {
	n, err := s.Normalized()
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(n)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(keyDomain))
	h.Write([]byte{0})
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// ParseEstimators builds a Spec from a comma-separated kind list — the
// CLI surface (`-estimators paco,count`). refresh and threshold apply to
// every paco/count entry respectively; zero keeps the defaults.
func ParseEstimators(list string, refresh uint64, threshold uint32) (Spec, error) {
	var spec Spec
	for _, kind := range strings.Split(list, ",") {
		kind = strings.TrimSpace(kind)
		if kind == "" {
			continue
		}
		spec.Estimators = append(spec.Estimators, EstimatorSpec{
			Kind: kind, Refresh: refresh, Threshold: threshold,
		})
	}
	if _, err := spec.Normalized(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// EstimatorScore is one estimator's rolling view. Fields that do not
// apply to the kind are omitted (count has no probability register;
// static never trains but still scores).
type EstimatorScore struct {
	Kind string `json:"kind"`
	// EncodedSum is the integer path-confidence register (probabilistic
	// kinds).
	EncodedSum *int64 `json:"encoded_sum,omitempty"`
	// PGoodpath is the decoded P(goodpath) in [0, 1] (probabilistic
	// kinds).
	PGoodpath *float64 `json:"p_goodpath,omitempty"`
	// RMSError is the rolling reliability error: predicted P(goodpath)
	// at retire vs. observed correctness, the paper's Figure 5 metric
	// computed online. Omitted until the first conditional retire.
	RMSError *float64 `json:"rms_error,omitempty"`
	// LowConfidence is the unresolved low-confidence branch count
	// (count kind).
	LowConfidence *int `json:"low_confidence,omitempty"`
	// Instances is how many retires have fed the reliability estimate.
	Instances uint64 `json:"instances,omitempty"`
}

// Scores is a point-in-time snapshot of a session.
type Scores struct {
	Events     uint64 `json:"events"`
	Fetches    uint64 `json:"fetches"`
	Resolves   uint64 `json:"resolves"`
	Squashes   uint64 `json:"squashes"`
	Retires    uint64 `json:"retires"`
	Mispredict uint64 `json:"mispredicts"`
	Cycles     uint64 `json:"cycles"`
	// Inflight is the number of fetched-but-unresolved branches.
	Inflight int `json:"inflight"`

	Estimators []EstimatorScore `json:"estimators"`

	// Queued is how many ingested events await application (set by the
	// table; a bare Session applies synchronously and reports zero).
	Queued int `json:"queued,omitempty"`
	// Final marks the snapshot taken at Close: in-flight branches have
	// been squashed and no further events will apply.
	Final bool `json:"final,omitempty"`
	// Error carries the session's latched stream error, if any.
	Error string `json:"error,omitempty"`
}

// ErrClosed reports an event applied to a closed session.
var ErrClosed = errors.New("session: closed")

// Session is one live estimator set. Not safe for concurrent use — the
// Table serializes each session on its shard worker.
type Session struct {
	spec Spec // normalized
	ests []core.Estimator
	prob []core.Probabilistic   // parallel to ests; nil where not probabilistic
	rel  []*metrics.Reliability // parallel to ests; nil where not probabilistic
	cnt  []*core.CountPredictor // parallel to ests; nil where not count

	inflight *trace.Inflight // one row of contributions per in-flight tag

	events, fetches, resolves, squashes, retires, mispredicts, cycles uint64

	err    error // first stream error, latched
	closed bool
}

// New builds a session from a spec (normalizing it first).
func New(spec Spec) (*Session, error) {
	n, err := spec.Normalized()
	if err != nil {
		return nil, err
	}
	s := &Session{
		spec:     n,
		ests:     make([]core.Estimator, len(n.Estimators)),
		prob:     make([]core.Probabilistic, len(n.Estimators)),
		rel:      make([]*metrics.Reliability, len(n.Estimators)),
		cnt:      make([]*core.CountPredictor, len(n.Estimators)),
		inflight: trace.NewInflight(len(n.Estimators)),
	}
	for i, e := range n.Estimators {
		switch e.Kind {
		case KindPaCo:
			s.ests[i] = core.NewPaCo(core.PaCoConfig{RefreshPeriod: e.Refresh})
		case KindStatic:
			s.ests[i] = core.NewStaticMRT(nil)
		case KindPerBranch:
			s.ests[i] = core.NewPerBranchMRT(core.DefaultPerBranchEntries)
		case KindCount:
			s.ests[i] = core.NewCountPredictor(e.Threshold)
		}
		if p, ok := s.ests[i].(core.Probabilistic); ok {
			s.prob[i] = p
			s.rel[i] = &metrics.Reliability{}
		}
		if c, ok := s.ests[i].(*core.CountPredictor); ok {
			s.cnt[i] = c
		}
	}
	return s, nil
}

// Spec returns the session's normalized spec.
func (s *Session) Spec() Spec { return s.spec }

// Err returns the session's latched stream error, if any.
func (s *Session) Err() error { return s.err }

// Apply feeds one event through every estimator — the same lifecycle
// trace.Replay drives, so streaming and offline replay converge on
// identical estimator state. A stream error (resolve without fetch)
// latches: the session keeps serving scores but refuses further events.
func (s *Session) Apply(ev trace.Event) error {
	if s.closed {
		return ErrClosed
	}
	if s.err != nil {
		return s.err
	}
	s.events++
	switch ev.Kind {
	case trace.EvFetch:
		s.fetches++
		be := ev.Branch()
		row := s.inflight.Put(ev.Tag)
		for i, e := range s.ests {
			row[i] = e.BranchFetched(be)
		}
	case trace.EvResolve, trace.EvSquash:
		contribs, ok := s.inflight.Take(ev.Tag)
		if !ok {
			s.err = fmt.Errorf("session: tag %d resolved without fetch", ev.Tag)
			return s.err
		}
		for i, e := range s.ests {
			if ev.Kind == trace.EvResolve {
				e.BranchResolved(contribs[i])
			} else {
				e.BranchSquashed(contribs[i])
			}
		}
		if ev.Kind == trace.EvResolve {
			s.resolves++
		} else {
			s.squashes++
		}
	case trace.EvRetire:
		s.retires++
		correct := ev.Correct()
		if !correct {
			s.mispredicts++
		}
		be := ev.Branch()
		for i, e := range s.ests {
			// Reliability reads the estimate the consumer would have
			// acted on: P(goodpath) before this retire trains the tables.
			// Only conditional retires score, matching the campaign probe.
			if s.rel[i] != nil && be.Conditional {
				s.rel[i].Add(s.prob[i].GoodpathProb(), correct)
			}
			e.BranchRetired(be, correct)
		}
	case trace.EvCycle:
		s.cycles = ev.PC
		for _, e := range s.ests {
			e.Tick(ev.PC)
		}
	default:
		s.err = fmt.Errorf("session: unknown event kind %d", ev.Kind)
		return s.err
	}
	return nil
}

// ApplyAll feeds a batch, stopping at the first error.
func (s *Session) ApplyAll(evs []trace.Event) error {
	for _, ev := range evs {
		if err := s.Apply(ev); err != nil {
			return err
		}
	}
	return nil
}

// Scores snapshots the session.
func (s *Session) Scores() Scores {
	sc := Scores{
		Events:     s.events,
		Fetches:    s.fetches,
		Resolves:   s.resolves,
		Squashes:   s.squashes,
		Retires:    s.retires,
		Mispredict: s.mispredicts,
		Cycles:     s.cycles,
		Inflight:   s.inflight.Len(),
		Final:      s.closed,
	}
	if s.err != nil {
		sc.Error = s.err.Error()
	}
	sc.Estimators = make([]EstimatorScore, len(s.ests))
	for i := range s.ests {
		es := EstimatorScore{Kind: s.spec.Estimators[i].Kind}
		if p := s.prob[i]; p != nil {
			sum, prob := p.EncodedSum(), p.GoodpathProb()
			es.EncodedSum, es.PGoodpath = &sum, &prob
		}
		if r := s.rel[i]; r != nil && r.Instances() > 0 {
			rms := r.RMSError()
			es.RMSError = &rms
			es.Instances = r.Instances()
		}
		if c := s.cnt[i]; c != nil {
			n := c.Count()
			es.LowConfidence = &n
		}
		sc.Estimators[i] = es
	}
	return sc
}

// Close squashes dangling in-flight branches (in ascending tag order;
// squash subtraction is commutative, so this matches Replay's drain bit
// for bit) and returns the final snapshot. Closing twice returns the
// same scores.
func (s *Session) Close() Scores {
	if !s.closed {
		s.inflight.Drain(func(contribs []core.Contribution) {
			for i, e := range s.ests {
				e.BranchSquashed(contribs[i])
			}
			s.squashes++
		})
		s.closed = true
	}
	return s.Scores()
}

// Replay runs a whole recorded trace through a fresh session and returns
// its final scores — the offline reference the streaming path is tested
// byte-identical against, and the `paco-trace replay -scores` backend.
func Replay(r *trace.Reader, spec Spec) (Scores, error) {
	s, err := New(spec)
	if err != nil {
		return Scores{}, err
	}
	for {
		ev, err := r.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return s.Close(), err
		}
		if err := s.Apply(ev); err != nil {
			return s.Close(), err
		}
	}
	return s.Close(), nil
}

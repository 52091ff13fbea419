package session

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"paco/internal/trace"
)

// NDJSON is the text wire format for session ingest: one JSON object per
// line, mirroring the binary trace records so either encoding of the
// same event stream drives a session identically.
//
//	{"kind":"fetch","tag":7,"pc":16448,"history":48879,"mdc":3,"conditional":true}
//	{"kind":"resolve","tag":7}
//	{"kind":"squash","tag":8}
//	{"kind":"retire","pc":16448,"history":48879,"mdc":3,"conditional":true,"correct":true}
//	{"kind":"cycle","cycle":6400}
type wireEvent struct {
	Kind        string `json:"kind"`
	Tag         uint64 `json:"tag,omitempty"`
	PC          uint64 `json:"pc,omitempty"`
	History     uint32 `json:"history,omitempty"`
	MDC         uint8  `json:"mdc,omitempty"`
	Conditional bool   `json:"conditional,omitempty"`
	Correct     bool   `json:"correct,omitempty"`
	Cycle       uint64 `json:"cycle,omitempty"`
}

// kindNames maps binary event kinds to their NDJSON spellings (index by
// EventKind; slot 0 unused).
var kindNames = [...]string{"", "fetch", "resolve", "squash", "retire", "cycle"}

// parseNDJSONLine decodes one NDJSON line into a trace event. Lines in
// the canonical shape MarshalNDJSON writes take a hand-written parser;
// every other line goes through encoding/json. The canonical grammar is
// a subset of JSON on which encoding/json has exactly one reading, so
// both paths accept the same lines, yield the same events and report
// the same errors (FuzzParseNDJSONLine checks this differentially).
func parseNDJSONLine(line []byte) (trace.Event, error) {
	if w, ok := parseCanonicalLine(line); ok {
		return w.event()
	}
	return unmarshalNDJSONLine(line)
}

// unmarshalNDJSONLine is the general path: any JSON object. It is its
// own function because &w escapes into json.Unmarshal; inline, that
// would move the fast path's wireEvent to the heap too.
func unmarshalNDJSONLine(line []byte) (trace.Event, error) {
	var w wireEvent
	if err := json.Unmarshal(line, &w); err != nil {
		return trace.Event{}, fmt.Errorf("session: bad event line: %w", err)
	}
	return w.event()
}

// event maps a decoded line onto its trace event; both parse paths end
// here.
func (w *wireEvent) event() (trace.Event, error) {
	ev := trace.Event{Tag: w.Tag, PC: w.PC, History: w.History, MDC: w.MDC}
	if w.Conditional {
		ev.Flags |= 1
	}
	if w.Correct {
		ev.Flags |= 2
	}
	switch w.Kind {
	case "fetch":
		ev.Kind = trace.EvFetch
	case "resolve":
		ev.Kind = trace.EvResolve
	case "squash":
		ev.Kind = trace.EvSquash
	case "retire":
		ev.Kind = trace.EvRetire
	case "cycle":
		ev.Kind = trace.EvCycle
		ev.PC = w.Cycle
	default:
		return trace.Event{}, fmt.Errorf("session: unknown event kind %q", w.Kind)
	}
	return ev, nil
}

// parseCanonicalLine parses line if it has the canonical shape, and
// reports false for anything else. Canonical means: a JSON object with
// no whitespace; only wireEvent's eight lowercase keys, each at most
// once, in any order; a kind of [a-z]+; unsigned decimal numbers with no
// leading zero that fit the field's type; true or false for the flags.
// It does not allocate for the known kinds.
func parseCanonicalLine(line []byte) (w wireEvent, ok bool) {
	if len(line) < 2 || line[0] != '{' || line[len(line)-1] != '}' {
		return w, false
	}
	var seen uint8
	for p := line[1 : len(line)-1]; len(p) > 0; {
		var key []byte
		if key, p, ok = quotedLower(p); !ok || len(p) == 0 || p[0] != ':' {
			return w, false
		}
		p = p[1:]
		// Each value parser consumes its value and returns the rest.
		var bit uint8
		var n uint64
		switch string(key) {
		case "kind":
			bit = 1 << 0
			if key, p, ok = quotedLower(p); ok {
				w.Kind = kindName(key)
			}
		case "tag":
			bit = 1 << 1
			w.Tag, p, ok = parseUint(p, math.MaxUint64)
		case "pc":
			bit = 1 << 2
			w.PC, p, ok = parseUint(p, math.MaxUint64)
		case "history":
			bit = 1 << 3
			n, p, ok = parseUint(p, math.MaxUint32)
			w.History = uint32(n)
		case "mdc":
			bit = 1 << 4
			n, p, ok = parseUint(p, math.MaxUint8)
			w.MDC = uint8(n)
		case "conditional":
			bit = 1 << 5
			w.Conditional, p, ok = parseBool(p)
		case "correct":
			bit = 1 << 6
			w.Correct, p, ok = parseBool(p)
		case "cycle":
			bit = 1 << 7
			w.Cycle, p, ok = parseUint(p, math.MaxUint64)
		default:
			return w, false
		}
		if !ok || seen&bit != 0 {
			return w, false
		}
		seen |= bit
		if len(p) > 0 {
			if p[0] != ',' || len(p) == 1 { // junk after the value, or a trailing comma
				return w, false
			}
			p = p[1:]
		}
	}
	return w, true
}

// quotedLower splits a leading quoted [a-z]+ string off p.
func quotedLower(p []byte) (s, rest []byte, ok bool) {
	end := 1
	for end < len(p) && 'a' <= p[end] && p[end] <= 'z' {
		end++
	}
	if end == 1 || end >= len(p) || p[0] != '"' || p[end] != '"' {
		return nil, p, false
	}
	return p[1:end], p[end+1:], true
}

// kindName returns the kindNames spelling of name when it is one, so
// known kinds cost no allocation.
func kindName(name []byte) string {
	for _, k := range kindNames[1:] {
		if string(name) == k {
			return k
		}
	}
	return string(name)
}

// parseUint reads an unsigned decimal at the start of p: no sign and no
// leading zero, and false above max. A fraction or exponent is left in
// the rest, where the caller rejects it.
func parseUint(p []byte, max uint64) (uint64, []byte, bool) {
	var n uint64
	i := 0
	for ; i < len(p); i++ {
		d := uint64(p[i] - '0')
		if d > 9 {
			break
		}
		if n > (max-d)/10 {
			return 0, p, false
		}
		n = n*10 + d
	}
	if i == 0 || i > 1 && p[0] == '0' {
		return 0, p, false
	}
	return n, p[i:], true
}

// parseBool reads a JSON true or false at the start of p.
func parseBool(p []byte) (bool, []byte, bool) {
	if bytes.HasPrefix(p, []byte("true")) {
		return true, p[4:], true
	}
	if bytes.HasPrefix(p, []byte("false")) {
		return false, p[5:], true
	}
	return false, p, false
}

// DecodeNDJSON parses every newline-terminated event in data, returning
// the events and the unterminated tail (the partial last line of a
// chunked upload — the caller stashes it and prepends it to the next
// chunk). Blank lines are skipped. A bad line fails the whole call.
func DecodeNDJSON(data []byte) ([]trace.Event, []byte, error) {
	evs, rest, err := appendNDJSON(nil, nil, data, false)
	if err != nil {
		return nil, nil, err
	}
	return evs, rest, nil
}

// appendNDJSON decodes chunk as the continuation of an NDJSON stream
// whose earlier chunks left the unterminated partial line rem, appends
// the completed events to dst, and returns the new remainder. It is the
// one partial-line stitcher behind table ingest, journal replay and
// IngestNDJSON:
//   - rem is never written and only the stitched first line is copied,
//     so a caller that rejects the chunk keeps its remainder as it was;
//   - the returned remainder may alias rem or chunk;
//   - final marks chunk as the end of the stream: its unterminated last
//     line is decoded too, and the remainder is nil.
//
// dst grows once, by the chunk's line count. Blank lines are skipped,
// and the first bad line fails the whole call; dst then comes back
// holding the chunk's lines ahead of the bad one, for the caller to
// truncate.
func appendNDJSON(dst []trace.Event, rem, chunk []byte, final bool) ([]trace.Event, []byte, error) {
	lines := bytes.Count(chunk, []byte{'\n'})
	if final {
		lines++
	}
	if lines == 0 { // the chunk only extends the partial line
		if len(rem) == 0 {
			return dst, chunk, nil
		}
		return dst, append(rem[:len(rem):len(rem)], chunk...), nil
	}
	dst = slices.Grow(dst, lines)
	var err error
	if len(rem) > 0 {
		nl := bytes.IndexByte(chunk, '\n')
		if nl < 0 { // final: the chunk ends the stream mid-line
			nl = len(chunk)
		}
		if dst, err = appendNDJSONLine(dst, append(rem[:len(rem):len(rem)], chunk[:nl]...)); err != nil {
			return dst, nil, err
		}
		chunk = chunk[min(nl+1, len(chunk)):]
	}
	for {
		nl := bytes.IndexByte(chunk, '\n')
		if nl < 0 {
			break
		}
		if dst, err = appendNDJSONLine(dst, chunk[:nl]); err != nil {
			return dst, nil, err
		}
		chunk = chunk[nl+1:]
	}
	if !final {
		return dst, chunk, nil
	}
	if dst, err = appendNDJSONLine(dst, chunk); err != nil {
		return dst, nil, err
	}
	return dst, nil, nil
}

// appendNDJSONLine decodes one line onto dst, skipping it if blank.
func appendNDJSONLine(dst []trace.Event, line []byte) ([]trace.Event, error) {
	line = bytes.TrimSpace(line)
	if len(line) == 0 {
		return dst, nil
	}
	ev, err := parseNDJSONLine(line)
	if err != nil {
		return dst, err
	}
	return append(dst, ev), nil
}

// MarshalNDJSON renders one event as an NDJSON line (with trailing
// newline) — the client-side encoder used by examples and tests. Its
// output is always in the canonical shape parseNDJSONLine decodes
// without encoding/json.
func MarshalNDJSON(ev trace.Event) ([]byte, error) {
	if int(ev.Kind) <= 0 || int(ev.Kind) >= len(kindNames) {
		return nil, fmt.Errorf("session: unknown event kind %d", ev.Kind)
	}
	w := wireEvent{Kind: kindNames[ev.Kind]}
	switch ev.Kind {
	case trace.EvFetch:
		w.Tag, w.PC, w.History, w.MDC = ev.Tag, ev.PC, ev.History, ev.MDC
		w.Conditional = ev.Conditional()
	case trace.EvResolve, trace.EvSquash:
		w.Tag = ev.Tag
	case trace.EvRetire:
		w.PC, w.History, w.MDC = ev.PC, ev.History, ev.MDC
		w.Conditional, w.Correct = ev.Conditional(), ev.Correct()
	case trace.EvCycle:
		w.Cycle = ev.PC
	}
	b, err := json.Marshal(w)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// IngestNDJSON parses and applies a complete NDJSON document — the
// convenience entry point for direct (non-server) use, where data is not
// chunked: a final line without a trailing newline is accepted.
func (s *Session) IngestNDJSON(data []byte) error {
	evs, _, err := appendNDJSON(nil, nil, data, true)
	if err != nil {
		return err
	}
	return s.ApplyAll(evs)
}

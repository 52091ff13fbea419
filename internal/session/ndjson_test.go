package session

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"paco/internal/trace"
)

// referenceParseNDJSONLine is the encoding/json-only line decoder, the
// reference parseNDJSONLine must agree with on every input.
func referenceParseNDJSONLine(line []byte) (trace.Event, error) {
	var w wireEvent
	if err := json.Unmarshal(line, &w); err != nil {
		return trace.Event{}, fmt.Errorf("session: bad event line: %w", err)
	}
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

// checkAgainstReference fails unless parseNDJSONLine and the reference
// give the same event and the same error text for line.
func checkAgainstReference(t *testing.T, line []byte) {
	t.Helper()
	got, gotErr := parseNDJSONLine(line)
	want, wantErr := referenceParseNDJSONLine(line)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: error %v, reference %v", line, gotErr, wantErr)
	}
	if gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%q: error text\n got  %s\n want %s", line, gotErr, wantErr)
	}
	if got != want {
		t.Fatalf("%q: event %+v, reference %+v", line, got, want)
	}
}

// canonicalLines is MarshalNDJSON output for every event kind, with
// field values at both ends of each type's range.
func canonicalLines(t testing.TB) [][]byte {
	evs := []trace.Event{
		{Kind: trace.EvFetch, Tag: 7, PC: 16448, History: 48879, MDC: 3, Flags: 1},
		{Kind: trace.EvFetch, Tag: 1<<64 - 1, PC: 1<<64 - 1, History: 1<<32 - 1, MDC: 255, Flags: 1},
		{Kind: trace.EvFetch},
		{Kind: trace.EvResolve, Tag: 7},
		{Kind: trace.EvSquash, Tag: 8},
		{Kind: trace.EvRetire, PC: 16448, History: 48879, MDC: 3, Flags: 3},
		{Kind: trace.EvRetire, PC: 16448, Flags: 2},
		{Kind: trace.EvCycle, PC: 6400},
		{Kind: trace.EvCycle},
	}
	lines := make([][]byte, len(evs))
	for i, ev := range evs {
		line, err := MarshalNDJSON(ev)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = bytes.TrimSuffix(line, []byte("\n"))
	}
	return lines
}

// ndjsonEdgeLines are inputs at and just past the canonical grammar's
// edges. Each either parses canonically (canonical set) or must fall
// through to encoding/json with identical results.
var ndjsonEdgeLines = []struct {
	line      string
	canonical bool
}{
	// Leading zeros.
	{`{"kind":"cycle","cycle":0}`, true},
	{`{"kind":"cycle","cycle":064}`, false},
	{`{"kind":"fetch","tag":00}`, false},
	// Range limits per field type.
	{`{"kind":"fetch","mdc":255}`, true},
	{`{"kind":"fetch","mdc":256}`, false},
	{`{"kind":"fetch","history":4294967295}`, true},
	{`{"kind":"fetch","history":4294967296}`, false},
	{`{"kind":"fetch","tag":18446744073709551615}`, true},
	{`{"kind":"fetch","tag":18446744073709551616}`, false},
	{`{"kind":"fetch","pc":99999999999999999999}`, false},
	// Negative, float and exponent numbers.
	{`{"kind":"fetch","tag":-1}`, false},
	{`{"kind":"fetch","tag":-0}`, false},
	{`{"kind":"fetch","tag":1.5}`, false},
	{`{"kind":"fetch","tag":1.0}`, false},
	{`{"kind":"fetch","tag":1e3}`, false},
	{`{"kind":"fetch","mdc":2E1}`, false},
	{`{"kind":"fetch","tag":+1}`, false},
	// Uppercase and duplicate keys.
	{`{"Kind":"fetch","tag":1}`, false},
	{`{"KIND":"fetch","TAG":3}`, false},
	{`{"kind":"FETCH"}`, false},
	{`{"kind":"fetch","tag":1,"tag":2}`, false},
	{`{"kind":"warp","kind":"fetch"}`, false},
	{`{"kind":"fetch","conditional":true,"conditional":false}`, false},
	// Unknown fields.
	{`{"kind":"fetch","foo":1}`, false},
	{`{"kind":"fetch","foo":{"a":[1,2]}}`, false},
	{`{"kind":"fetch","":1}`, false},
	// Whitespace.
	{`{ "kind":"fetch"}`, false},
	{`{"kind" :"fetch"}`, false},
	{`{"kind":"fetch", "tag":1}`, false},
	{"{\"kind\":\"fetch\",\t\"tag\":1}", false},
	// Escapes in the kind.
	{`{"kind":"f\u0065tch"}`, false},
	{`{"kind":"\u0066etch","tag":1}`, false},
	{`{"kind":"fetch\n"}`, false},
	{`{"kind":"fe\"tch"}`, false},
	// null.
	{`null`, false},
	{`{"kind":null}`, false},
	{`{"kind":"fetch","tag":null}`, false},
	// Trailing garbage and malformed objects.
	{`{"kind":"fetch"}x`, false},
	{`{"kind":"fetch"}}`, false},
	{`{"kind":"fetch"},`, false},
	{`{"kind":"fetch",}`, false},
	{`{"kind":"fetch"`, false},
	{`{"kind":"fetch""tag":1}`, false},
	{`{"kind":}`, false},
	{`[]`, false},
	{`{`, false},
	{``, false},
	// Missing or unknown kind, which both paths reject with one text.
	{`{}`, true},
	{`{"tag":1}`, true},
	{`{"kind":""}`, false},
	{`{"kind":"warp"}`, true},
	// Flags.
	{`{"kind":"retire","correct":false,"conditional":true}`, true},
	{`{"kind":"retire","correct":True}`, false},
	{`{"kind":"retire","correct":1}`, false},
	{`{"kind":"retire","correct":"true"}`, false},
	// cycle together with pc: cycle wins on both paths.
	{`{"kind":"cycle","pc":5,"cycle":9}`, true},
	{`{"kind":"cycle","cycle":9,"pc":5}`, true},
	{`{"kind":"cycle","pc":5}`, true},
	// Any key order, and fields a kind does not use.
	{`{"mdc":3,"tag":7,"kind":"squash","history":1,"correct":true}`, true},
}

// TestParseNDJSONLineMatchesReference runs the fuzz seeds as a plain
// test: canonical lines take the fast path, the rest fall through, and
// every one agrees with encoding/json.
func TestParseNDJSONLineMatchesReference(t *testing.T) {
	for _, line := range canonicalLines(t) {
		if _, ok := parseCanonicalLine(line); !ok {
			t.Errorf("MarshalNDJSON output %s missed the canonical parser", line)
		}
		checkAgainstReference(t, line)
	}
	for _, tc := range ndjsonEdgeLines {
		if _, ok := parseCanonicalLine([]byte(tc.line)); ok != tc.canonical {
			t.Errorf("%s: canonical = %v, want %v", tc.line, ok, tc.canonical)
		}
		checkAgainstReference(t, []byte(tc.line))
	}
}

func FuzzParseNDJSONLine(f *testing.F) {
	for _, line := range canonicalLines(f) {
		f.Add(line)
	}
	for _, tc := range ndjsonEdgeLines {
		f.Add([]byte(tc.line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkAgainstReference(t, line)
	})
}

// syntheticNDJSON renders n synthetic events as canonical NDJSON.
func syntheticNDJSON(t testing.TB, n int) []byte {
	var buf bytes.Buffer
	for _, ev := range SyntheticEvents(1, n) {
		line, err := MarshalNDJSON(ev)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
	}
	return buf.Bytes()
}

// TestDecodeNDJSONAllocs pins allocation per chunk, not per line: the
// event slice is sized once from the newline count and canonical lines
// allocate nothing, so 100 and 10,000 lines cost the same. That is one
// allocation, two under the race detector.
func TestDecodeNDJSONAllocs(t *testing.T) {
	var allocs []float64
	for _, n := range []int{100, 10_000} {
		doc := syntheticNDJSON(t, n)
		allocs = append(allocs, testing.AllocsPerRun(10, func() {
			evs, _, err := DecodeNDJSON(doc)
			if err != nil || len(evs) != n {
				t.Fatalf("decoded %d events, err %v; want %d", len(evs), err, n)
			}
		}))
	}
	if allocs[0] != allocs[1] || allocs[0] > 2 {
		t.Fatalf("DecodeNDJSON allocations: %v for 100 lines, %v for 10000; want the same constant, at most 2", allocs[0], allocs[1])
	}
}

func BenchmarkDecodeNDJSON(b *testing.B) {
	const n = 10_000
	doc := syntheticNDJSON(b, n)
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := DecodeNDJSON(doc); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"paco/internal/obs"
	"paco/internal/session"
	"paco/internal/trace"
)

// sessionSpecJSON is the four-estimator spec the HTTP tests run with.
const sessionSpecJSON = `{"estimators":[{"kind":"paco","refresh":128},{"kind":"static"},{"kind":"perbranch"},{"kind":"count","threshold":3}]}`

// genSessionEvents synthesizes a valid event stream (fetches open tags,
// resolves/squashes close them, retires train, cycle markers tick),
// deterministic by seed.
func genSessionEvents(seed int64, n int) []trace.Event {
	rng := rand.New(rand.NewSource(seed))
	var evs []trace.Event
	var open []uint64
	nextTag := uint64(1)
	cycle := uint64(0)
	for len(evs) < n {
		switch r := rng.Intn(10); {
		case r < 4: // fetch
			ev := trace.Event{
				Kind:    trace.EvFetch,
				Tag:     nextTag,
				PC:      0x4000 + uint64(rng.Intn(64))*4,
				History: uint32(rng.Intn(1 << 12)),
				MDC:     uint8(rng.Intn(16)),
			}
			if rng.Intn(4) != 0 {
				ev.Flags |= 1 // conditional
			}
			open = append(open, nextTag)
			nextTag++
			evs = append(evs, ev)
		case r < 7 && len(open) > 0: // resolve or squash
			i := rng.Intn(len(open))
			tag := open[i]
			open = append(open[:i], open[i+1:]...)
			kind := trace.EvResolve
			if rng.Intn(5) == 0 {
				kind = trace.EvSquash
			}
			evs = append(evs, trace.Event{Kind: kind, Tag: tag})
		case r < 9: // retire
			ev := trace.Event{
				Kind:    trace.EvRetire,
				PC:      0x4000 + uint64(rng.Intn(64))*4,
				History: uint32(rng.Intn(1 << 12)),
				MDC:     uint8(rng.Intn(16)),
				Flags:   1, // conditional
			}
			if rng.Intn(5) != 0 {
				ev.Flags |= 2 // correct
			}
			evs = append(evs, ev)
		default: // cycle marker
			cycle += 64
			evs = append(evs, trace.Event{Kind: trace.EvCycle, PC: cycle})
		}
	}
	return evs
}

// traceBytes serializes events as a binary trace stream.
func traceBytes(t *testing.T, evs []trace.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// ndjsonBytes serializes events as NDJSON lines.
func ndjsonBytes(t *testing.T, evs []trace.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, ev := range evs {
		line, err := session.MarshalNDJSON(ev)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
	}
	return buf.Bytes()
}

func openSession(t *testing.T, ts *httptest.Server, spec string) session.Opened {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open session → %d: %s", resp.StatusCode, raw)
	}
	var opened session.Opened
	if err := json.Unmarshal(raw, &opened); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	return opened
}

// postChunk sends one ingest chunk, returning status, Retry-After header,
// and the decoded acknowledgment (zero on errors).
func postChunk(t *testing.T, ts *httptest.Server, id, contentType string, chunk []byte) (int, string, session.Ingested) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sessions/"+id+"/events", contentType, bytes.NewReader(chunk))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var ack session.Ingested
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(raw, &ack); err != nil {
			t.Fatalf("decoding ack %s: %v", raw, err)
		}
	}
	return resp.StatusCode, resp.Header.Get("Retry-After"), ack
}

// streamChunks feeds raw to the session in fixed-size chunks, retrying
// backpressure rejections with the identical bytes, and returns how many
// 429s were observed.
func streamChunks(t *testing.T, ts *httptest.Server, id, contentType string, raw []byte, chunk int) int {
	t.Helper()
	rejected := 0
	for off := 0; off < len(raw); {
		end := off + chunk
		if end > len(raw) {
			end = len(raw)
		}
		status, retryAfter, _ := postChunk(t, ts, id, contentType, raw[off:end])
		switch status {
		case http.StatusAccepted:
			off = end
		case http.StatusTooManyRequests:
			rejected++
			if retryAfter == "" {
				t.Fatal("429 without Retry-After header")
			}
			time.Sleep(time.Millisecond)
		default:
			t.Fatalf("ingest chunk at %d → %d", off, status)
		}
	}
	return rejected
}

func getScores(t *testing.T, ts *httptest.Server, id string) (session.Scores, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/scores")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return session.Scores{}, resp.StatusCode
	}
	var sc session.Scores
	if err := json.Unmarshal(raw, &sc); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	return sc, resp.StatusCode
}

// closeSession DELETEs the session and returns the raw response body (the
// final scores document, byte-comparable to offline replay output).
func closeSession(t *testing.T, ts *httptest.Server, id string) ([]byte, int) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return raw, resp.StatusCode
}

// TestSessionStreamingDeterminism is the subsystem's acceptance test: a
// recorded binary trace streamed through the HTTP surface in arbitrary
// chunks finishes with byte-identical final scores to offline replay of
// the same bytes.
func TestSessionStreamingDeterminism(t *testing.T) {
	_, ts := testServer(t, Config{JobWorkers: 1, QueueSize: 4, CacheBytes: 1 << 20})
	evs := genSessionEvents(42, 5000)
	raw := traceBytes(t, evs)

	spec, err := session.ParseEstimators("paco,static,perbranch,count", 128, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	offline, err := session.Replay(r, spec)
	if err != nil {
		t.Fatal(err)
	}
	// The DELETE body is writeIndentedJSON output: indented JSON plus
	// newline, the bytes `paco-trace replay -scores` prints.
	want, err := json.MarshalIndent(offline, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')

	// 997 is deliberately coprime with the 23-byte record size, so every
	// chunk boundary falls mid-record.
	opened := openSession(t, ts, sessionSpecJSON)
	streamChunks(t, ts, opened.ID, "application/octet-stream", raw, 997)

	// Wait for the queue to drain before closing, so the final document's
	// Queued field is exercised as zero the same way offline reports it.
	deadline := time.Now().Add(30 * time.Second)
	for {
		sc, _ := getScores(t, ts, opened.ID)
		if sc.Queued == 0 && sc.Events == uint64(len(evs)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never drained: %+v", sc)
		}
		time.Sleep(time.Millisecond)
	}
	body, status := closeSession(t, ts, opened.ID)
	if status != http.StatusOK {
		t.Fatalf("close → %d: %s", status, body)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("streamed final scores differ from offline replay:\n got %s\nwant %s", body, want)
	}

	// The session is gone afterwards: 410 naming the close reason, not
	// the 404 an ID the table never issued gets.
	if _, status := getScores(t, ts, opened.ID); status != http.StatusGone {
		t.Fatalf("scores after close → %d, want 410", status)
	}
	if body, status := closeSession(t, ts, opened.ID); status != http.StatusGone || !bytes.Contains(body, []byte("client")) {
		t.Fatalf("double close → %d: %s, want 410 naming reason client", status, body)
	}
}

// TestSessionSpecKeyAndErrors covers the open path: respelled specs
// content-address to the same key, the trace header is echoed, bad specs
// are client errors, and a full table answers 503.
func TestSessionSpecKeyAndErrors(t *testing.T) {
	_, ts := testServer(t, Config{JobWorkers: 1, QueueSize: 4, CacheBytes: 1 << 20, SessionMaxOpen: 2})

	req, _ := http.NewRequest("POST", ts.URL+"/v1/sessions",
		strings.NewReader(`{"estimators":[{"kind":"PaCo","refresh":200000}]}`))
	req.Header.Set(obs.TraceHeader, "t-session-test")
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var a session.Opened
	if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.TraceHeader); got != "t-session-test" {
		t.Errorf("%s echoed %q, want the client's trace ID", obs.TraceHeader, got)
	}

	// The zero spec normalizes to the same single default-PaCo estimator.
	b := openSession(t, ts, "")
	if a.Key != b.Key {
		t.Errorf("respelled specs keyed differently:\n %s\n %s", a.Key, b.Key)
	}
	if a.ID == b.ID {
		t.Error("distinct sessions share an ID")
	}
	if len(b.Spec.Estimators) != 1 || b.Spec.Estimators[0].Kind != session.KindPaCo {
		t.Errorf("normalized spec not echoed: %+v", b.Spec)
	}

	// Both slots taken: the cap rejects with 503.
	resp, err = http.Post(ts.URL+"/v1/sessions", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("open past cap → %d, want 503", resp.StatusCode)
	}

	// Unknown estimator kind is a client error.
	resp, err = http.Post(ts.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"estimators":[{"kind":"magic"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus kind → %d, want 400", resp.StatusCode)
	}

	// Unknown session IDs 404 on every per-session route.
	if _, status := getScores(t, ts, "s-nope"); status != http.StatusNotFound {
		t.Errorf("scores for unknown session → %d, want 404", status)
	}
	if status, _, _ := postChunk(t, ts, "s-nope", "application/x-ndjson", []byte("{}\n")); status != http.StatusNotFound {
		t.Errorf("ingest for unknown session → %d, want 404", status)
	}
	if _, status := closeSession(t, ts, "s-nope"); status != http.StatusNotFound {
		t.Errorf("close for unknown session → %d, want 404", status)
	}
}

// TestSessionFormatConflict: a session locks onto its first chunk's
// encoding; switching mid-stream is 409, and a decode error is 400 but
// leaves the session closeable.
func TestSessionFormatConflict(t *testing.T) {
	_, ts := testServer(t, Config{JobWorkers: 1, QueueSize: 4, CacheBytes: 1 << 20})
	evs := genSessionEvents(7, 50)

	opened := openSession(t, ts, sessionSpecJSON)
	if status, _, _ := postChunk(t, ts, opened.ID, "application/x-ndjson", ndjsonBytes(t, evs)); status != http.StatusAccepted {
		t.Fatalf("NDJSON ingest → %d", status)
	}
	if status, _, _ := postChunk(t, ts, opened.ID, "application/octet-stream", traceBytes(t, evs)); status != http.StatusConflict {
		t.Fatalf("binary chunk into NDJSON stream → %d, want 409", status)
	}
	if status, _, _ := postChunk(t, ts, opened.ID, "application/x-ndjson", []byte("{\"kind\":\"warp\"}\n")); status != http.StatusBadRequest {
		t.Fatalf("undecodable chunk → %d, want 400", status)
	}
	if _, status := closeSession(t, ts, opened.ID); status != http.StatusOK {
		t.Fatalf("close after decode error → %d, want 200", status)
	}
}

// TestSessionBackpressure drives a session queue into overflow: rejected
// chunks come back 429 with Retry-After, retrying the same bytes loses
// nothing, and the exported paco_session_backpressure_total matches the
// 429s the clients saw.
//
// The shard worker drains under the shard lock, so a lone client can
// never observe a partially-full queue — it just waits on the mutex and
// finds the queue empty. Concurrent posters are what backpressure exists
// for: every accepted chunk (100 events against a cap of 8 — legal only
// because an empty queue accepts any single chunk) leaves the queue over
// its high-water mark, so any poster that beats the worker to the lock
// is rejected. The chunks are cycle-marker events, which commute, so the
// posters' interleaving still forms one valid stream.
func TestSessionBackpressure(t *testing.T) {
	_, ts := testServer(t, Config{JobWorkers: 1, QueueSize: 4, CacheBytes: 1 << 20,
		SessionQueueEvents: 8})

	const posters, rounds, chunkEvents = 8, 150, 100
	chunk := func() []byte {
		var buf bytes.Buffer
		for i := 0; i < chunkEvents; i++ {
			fmt.Fprintf(&buf, "{\"kind\":\"cycle\",\"cycle\":%d}\n", 64*(i+1))
		}
		return buf.Bytes()
	}()

	opened := openSession(t, ts, sessionSpecJSON)
	var rejected atomic.Int64
	errs := make(chan error, posters)
	for p := 0; p < posters; p++ {
		go func() {
			errs <- func() error {
				for r := 0; r < rounds; {
					resp, err := http.Post(ts.URL+"/v1/sessions/"+opened.ID+"/events",
						"application/x-ndjson", bytes.NewReader(chunk))
					if err != nil {
						return err
					}
					retryAfter := resp.Header.Get("Retry-After")
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					switch resp.StatusCode {
					case http.StatusAccepted:
						r++
					case http.StatusTooManyRequests:
						if retryAfter == "" {
							return fmt.Errorf("429 without Retry-After header")
						}
						rejected.Add(1) // retry the identical chunk
					default:
						return fmt.Errorf("ingest → %d", resp.StatusCode)
					}
				}
				return nil
			}()
		}()
	}
	for p := 0; p < posters; p++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if rejected.Load() == 0 {
		t.Fatal("no backpressure observed across all concurrent posts")
	}

	// Conservation: every acknowledged chunk applies exactly once —
	// rejected chunks were retried, none double-count.
	const total = posters * rounds * chunkEvents
	deadline := time.Now().Add(30 * time.Second)
	for {
		sc, _ := getScores(t, ts, opened.ID)
		if sc.Queued == 0 && sc.Events == uint64(total) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never drained to %d events: %+v", total, sc)
		}
		time.Sleep(time.Millisecond)
	}

	body := scrape(t, ts.URL)
	want := fmt.Sprintf("paco_session_backpressure_total %d", rejected.Load())
	if !strings.Contains(body, want) {
		t.Errorf("counter does not match observed 429s: want %q:\n%s",
			want, grepMetrics(body, "paco_session_backpressure_total"))
	}
	t.Logf("%d accepted chunks, %d backpressure rejections", posters*rounds, rejected.Load())
}

// TestSessionLiveSSE subscribes to /live, streams events, closes the
// session, and checks the SSE stream ends with a terminal "final"
// snapshot matching everything ingested.
func TestSessionLiveSSE(t *testing.T) {
	_, ts := testServer(t, Config{JobWorkers: 1, QueueSize: 4, CacheBytes: 1 << 20})
	evs := genSessionEvents(9, 400)

	opened := openSession(t, ts, sessionSpecJSON)
	resp, err := http.Get(ts.URL + "/v1/sessions/" + opened.ID + "/live")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("live Content-Type = %q", ct)
	}
	br := bufio.NewReader(resp.Body)

	// The stream primes with the current (empty) snapshot.
	name, sc := readSSEScores(t, br)
	if name != "scores" || sc.Events != 0 {
		t.Fatalf("priming event = %s %+v", name, sc)
	}

	if status, _, _ := postChunk(t, ts, opened.ID, "application/x-ndjson", ndjsonBytes(t, evs)); status != http.StatusAccepted {
		t.Fatalf("ingest → %d", status)
	}
	if _, status := closeSession(t, ts, opened.ID); status != http.StatusOK {
		t.Fatalf("close → %d", status)
	}

	// Read to the terminal event: intermediate "scores" frames may or may
	// not appear (latest-wins), but the stream must end with "final"
	// carrying every ingested event, then EOF.
	var final session.Scores
	for {
		name, sc = readSSEScores(t, br)
		if name == "final" {
			final = sc
			break
		}
		if name != "scores" {
			t.Fatalf("unexpected SSE event %q", name)
		}
	}
	if !final.Final || final.Events != uint64(len(evs)) || final.Inflight != 0 {
		t.Fatalf("final snapshot = %+v, want Final with %d events", final, len(evs))
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("stream did not end after final event: %v", err)
	}

	// Subscribing to a closed session is a 410 (the table remembers the
	// close).
	resp2, err := http.Get(ts.URL + "/v1/sessions/" + opened.ID + "/live")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusGone {
		t.Fatalf("live on closed session → %d, want 410", resp2.StatusCode)
	}
}

// TestSessionLiveEvictionFinal covers the other way a session ends: the
// idle sweeper, not a DELETE. A live SSE subscriber must still receive
// the terminal "final" event (no dropped terminal), and afterwards every
// route answers the deterministic 410 status table with reason
// "evicted" — the DELETE-vs-sweeper race pinned over HTTP.
func TestSessionLiveEvictionFinal(t *testing.T) {
	_, ts := testServer(t, Config{JobWorkers: 1, QueueSize: 4, CacheBytes: 1 << 20,
		SessionTTL: 150 * time.Millisecond, SessionSweep: 10 * time.Millisecond})
	evs := genSessionEvents(21, 300)

	opened := openSession(t, ts, sessionSpecJSON)
	if status, _, _ := postChunk(t, ts, opened.ID, "application/x-ndjson", ndjsonBytes(t, evs)); status != http.StatusAccepted {
		t.Fatalf("ingest → %d", status)
	}

	// Subscribe and go quiet: reading /live is not activity, so the
	// sweeper evicts ~one TTL after the ingest above.
	resp, err := http.Get(ts.URL + "/v1/sessions/" + opened.ID + "/live")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	var final session.Scores
	for {
		name, sc := readSSEScores(t, br)
		if name == "final" {
			final = sc
			break
		}
		if name != "scores" {
			t.Fatalf("unexpected SSE event %q", name)
		}
	}
	if !final.Final || final.Events != uint64(len(evs)) {
		t.Fatalf("eviction final snapshot = %+v, want Final with %d events", final, len(evs))
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("stream did not end after eviction final: %v", err)
	}

	// The status table, while the tombstone is fresh: a client whose
	// DELETE lost the race to the sweeper gets 410 naming "evicted" on
	// every route, never a flaky 404.
	if body, status := closeSession(t, ts, opened.ID); status != http.StatusGone || !bytes.Contains(body, []byte("evicted")) {
		t.Fatalf("DELETE after eviction → %d: %s, want 410 naming reason evicted", status, body)
	}
	if _, status := getScores(t, ts, opened.ID); status != http.StatusGone {
		t.Fatalf("scores after eviction → %d, want 410", status)
	}
	if status, _, _ := postChunk(t, ts, opened.ID, "application/x-ndjson", []byte("{}\n")); status != http.StatusGone {
		t.Fatalf("ingest after eviction → %d, want 410", status)
	}
	respLive, err := http.Get(ts.URL + "/v1/sessions/" + opened.ID + "/live")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, respLive.Body)
	respLive.Body.Close()
	if respLive.StatusCode != http.StatusGone {
		t.Fatalf("live after eviction → %d, want 410", respLive.StatusCode)
	}
}

// TestSessionLiveClientDisconnect: a client that walks away from /live
// mid-stream must not leak the handler goroutine or its subscription,
// and the session stays fully usable and closeable.
func TestSessionLiveClientDisconnect(t *testing.T) {
	_, ts := testServer(t, Config{JobWorkers: 1, QueueSize: 4, CacheBytes: 1 << 20})

	// Baseline after the server (and its fixed goroutines) is up: the
	// leak check isolates what the SSE subscription itself spawned.
	opened := openSession(t, ts, sessionSpecJSON)
	baseline := runtime.NumGoroutine()
	ctx, cancelReq := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/sessions/"+opened.ID+"/live", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	if name, _ := readSSEScores(t, br); name != "scores" {
		t.Fatalf("priming event = %q", name)
	}
	cancelReq() // the client vanishes mid-stream
	resp.Body.Close()

	// The handler goroutine (and the table's subscriber slot) must drain.
	deadline := time.Now().Add(15 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak after SSE disconnect: %d alive, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The session did not notice: it still ingests and closes cleanly.
	if status, _, _ := postChunk(t, ts, opened.ID, "application/x-ndjson", []byte(`{"kind":"cycle","cycle":64}`+"\n")); status != http.StatusAccepted {
		t.Fatalf("ingest after subscriber disconnect → %d", status)
	}
	if _, status := closeSession(t, ts, opened.ID); status != http.StatusOK {
		t.Fatalf("close after subscriber disconnect → %d", status)
	}
}

// readSSEScores reads one "event:"/"data:" frame and decodes its Scores.
func readSSEScores(t *testing.T, br *bufio.Reader) (string, session.Scores) {
	t.Helper()
	var name string
	var sc session.Scores
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading SSE stream: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &sc); err != nil {
				t.Fatalf("decoding SSE data %q: %v", line, err)
			}
		case line == "":
			if name != "" {
				return name, sc
			}
		}
	}
}

// TestSessionNDJSONPartialLines: a chunk boundary mid-line is stitched
// back together by the server, not an error — the text-format analogue
// of the binary decoder's resumability.
func TestSessionNDJSONPartialLines(t *testing.T) {
	_, ts := testServer(t, Config{JobWorkers: 1, QueueSize: 4, CacheBytes: 1 << 20})
	evs := genSessionEvents(13, 300)
	doc := ndjsonBytes(t, evs)

	opened := openSession(t, ts, sessionSpecJSON)
	total := 0
	for off := 0; off < len(doc); off += 71 { // deliberately mid-line
		end := off + 71
		if end > len(doc) {
			end = len(doc)
		}
		status, _, ack := postChunk(t, ts, opened.ID, "application/x-ndjson", doc[off:end])
		if status != http.StatusAccepted {
			t.Fatalf("chunk at %d → %d", off, status)
		}
		total += ack.Accepted
	}
	if total != len(evs) {
		t.Fatalf("chunked NDJSON completed %d events, want %d", total, len(evs))
	}
}

// TestSessionCloseShutdown: sessions left open at server Close are shut
// down and counted; the table rejects opens afterwards.
func TestSessionCloseShutdown(t *testing.T) {
	s, err := New(Config{JobWorkers: 1, QueueSize: 4, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	if _, _, _, err := s.sessions.Open(session.Spec{}, "t-shutdown"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if s.sessions.Len() != 0 {
		t.Fatalf("%d sessions survived server Close", s.sessions.Len())
	}
	if _, _, _, err := s.sessions.Open(session.Spec{}, "t-late"); err == nil {
		t.Fatal("open accepted after server Close")
	}
}

// TestSessionConcurrentHTTP exercises the surface under parallel load:
// many goroutines each run an open → stream → verify → close lifecycle
// against a small table, with backpressure retries, and the table is
// empty afterwards. Meaningful under -race.
func TestSessionConcurrentHTTP(t *testing.T) {
	s, ts := testServer(t, Config{JobWorkers: 1, QueueSize: 4, CacheBytes: 1 << 20,
		SessionShards: 4, SessionMaxOpen: 64, SessionQueueEvents: 256})

	const clients = 8
	var rejected atomic.Int64
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			errs <- func() error {
				evs := genSessionEvents(int64(100+c), 1500)
				raw := traceBytes(t, evs)
				resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(sessionSpecJSON))
				if err != nil {
					return err
				}
				var opened session.Opened
				err = json.NewDecoder(resp.Body).Decode(&opened)
				resp.Body.Close()
				if err != nil {
					return err
				}
				for off := 0; off < len(raw); {
					end := off + 997
					if end > len(raw) {
						end = len(raw)
					}
					resp, err := http.Post(ts.URL+"/v1/sessions/"+opened.ID+"/events",
						"application/octet-stream", bytes.NewReader(raw[off:end]))
					if err != nil {
						return err
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					switch resp.StatusCode {
					case http.StatusAccepted:
						off = end
					case http.StatusTooManyRequests:
						rejected.Add(1)
						time.Sleep(time.Millisecond)
					default:
						return fmt.Errorf("client %d: chunk at %d → %d", c, off, resp.StatusCode)
					}
				}
				req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+opened.ID, nil)
				resp, err = http.DefaultClient.Do(req)
				if err != nil {
					return err
				}
				var final session.Scores
				err = json.NewDecoder(resp.Body).Decode(&final)
				resp.Body.Close()
				if err != nil {
					return err
				}
				if final.Events != uint64(len(evs)) {
					return fmt.Errorf("client %d: final reports %d events, want %d", c, final.Events, len(evs))
				}
				return nil
			}()
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if s.sessions.Len() != 0 {
		t.Errorf("%d sessions left open after all clients closed", s.sessions.Len())
	}
	t.Logf("concurrent lifecycle complete; %d backpressure rejections retried", rejected.Load())
}

// TestWriteIngestedMatchesWriteJSON: the hand-written 202 ack is
// byte-identical to writeJSON's encoding of session.Ingested, status and
// Content-Type included.
func TestWriteIngestedMatchesWriteJSON(t *testing.T) {
	for _, c := range [][2]int{{0, 0}, {1, 65536}, {23, 7}, {174762, 1 << 40}, {-1, math.MaxInt}} {
		want, got := httptest.NewRecorder(), httptest.NewRecorder()
		writeJSON(want, http.StatusAccepted, session.Ingested{Accepted: c[0], Queued: c[1]})
		writeIngested(got, c[0], c[1])
		if got.Code != want.Code || !reflect.DeepEqual(got.Header(), want.Header()) || got.Body.String() != want.Body.String() {
			t.Fatalf("ack %v: got %d %v %q, want %d %v %q", c,
				got.Code, got.Header(), got.Body, want.Code, want.Header(), want.Body)
		}
	}
}

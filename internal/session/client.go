package session

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// The /v1/sessions wire protocol, decided once: the reply types, each
// ingest format's Content-Type, the Retry-After rule and the SSE frame
// reader serve the server's handlers and router, and Client is this
// module's one client of the surface.

// Opened is the POST /v1/sessions reply. Worker names the owning
// federation worker when a routing coordinator placed the session
// (empty, and omitted, when a local table serves it).
type Opened struct {
	ID     string `json:"id"`
	Key    string `json:"key"`
	Spec   Spec   `json:"spec"`
	Worker string `json:"worker,omitempty"`
}

// Ingested is the 202 reply to POST /v1/sessions/{id}/events: how many
// events the chunk completed and the queue depth after it.
type Ingested struct {
	Accepted int `json:"accepted"`
	Queued   int `json:"queued"`
}

// ContentType is the ingest Content-Type that FormatOf maps back to f.
func (f Format) ContentType() string {
	if f == FormatBinary {
		return "application/octet-stream"
	}
	return "application/x-ndjson"
}

// FormatOf picks an ingest chunk's format from its Content-Type: binary
// trace frames announce themselves as application/octet-stream,
// everything else streams as NDJSON.
func FormatOf(contentType string) Format {
	if strings.Contains(contentType, "octet-stream") {
		return FormatBinary
	}
	return FormatNDJSON
}

// minRetryAfter floors the 429 backoff: honoring a hint of "0" or a
// sub-millisecond fraction verbatim spins a client against a slow server.
const minRetryAfter = 50 * time.Millisecond

// RetryAfter reads a 429's Retry-After header as decimal seconds
// (fractional hints are honored, not truncated to zero), clamped to
// minRetryAfter, defaulting to one second when absent or unparseable.
func RetryAfter(h http.Header) time.Duration {
	s, err := strconv.ParseFloat(h.Get("Retry-After"), 64)
	if err != nil || s != s { // unparseable or NaN
		return time.Second
	}
	d := time.Duration(s * float64(time.Second))
	if d < minRetryAfter {
		return minRetryAfter
	}
	return d
}

// MaxChunk bounds one ingest chunk's wire size (4 MiB ≈ 190k binary
// records), and so one SSE frame line. The per-session queue bound is
// separate and governs backpressure; this HTTP-layer cap also bounds
// how far past the queue's high-water mark a single chunk can land.
const MaxChunk = 4 << 20

// Frames yields the event name and data of each Server-Sent Events
// frame on r until r ends or fails. A frame cut off before its closing
// blank line is not yielded.
func Frames(r io.Reader) iter.Seq2[string, []byte] {
	return func(yield func(string, []byte) bool) {
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 0, 64<<10), MaxChunk)
		var event string
		var data []byte // nil until the frame has a data line
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				if data != nil && !yield(event, data) {
					return
				}
				event, data = "", nil
			} else if rest, ok := bytes.CutPrefix(line, []byte("event: ")); ok {
				event = string(rest)
			} else if rest, ok := bytes.CutPrefix(line, []byte("data: ")); ok {
				data = append(make([]byte, 0, len(rest)), rest...)
			}
		}
	}
}

// DefaultRetryBudget is how many 429 retries a Stream may spend. It is
// a liveness guard, not pacing: a healthy server drains its queue and
// accepts the retried chunk long before the budget runs out.
const DefaultRetryBudget = 10000

// ErrRetryBudget aborts a stream whose server keeps answering 429.
var ErrRetryBudget = errors.New("session: backpressure retry budget exhausted")

// Client speaks /v1/sessions to one paco-serve, which may serve the
// sessions from its own table or route them to federation workers: both
// answer alike.
type Client struct {
	base string
	// RetryBudget is the number of 429 retries each Stream may spend;
	// a negative budget never runs out.
	RetryBudget int
}

// NewClient returns a client of the server at base (e.g.
// "http://localhost:8344") with the DefaultRetryBudget.
func NewClient(base string) *Client {
	return &Client{base: base, RetryBudget: DefaultRetryBudget}
}

func (c *Client) url(id, suffix string) string {
	return c.base + "/v1/sessions/" + id + suffix
}

// statusError is a reply with a status the call did not want.
type statusError struct {
	op     string
	status int
	header http.Header
	body   []byte
}

func (e *statusError) Error() string {
	return fmt.Sprintf("%s: HTTP %d: %s", e.op, e.status, bytes.TrimSpace(e.body))
}

// do issues one request and reads the whole reply. A reply with status
// want is decoded into v (when v is non-nil) and returned; any other
// status comes back as a *statusError.
func do(op, method, url, contentType string, body []byte, want int, v any) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	switch {
	case err != nil:
		return nil, err
	case resp.StatusCode != want:
		return nil, &statusError{op, resp.StatusCode, resp.Header, data}
	case v != nil:
		if err := json.Unmarshal(data, v); err != nil {
			return nil, fmt.Errorf("%s: %w", op, err)
		}
	}
	return data, nil
}

// Open opens a session on spec.
func (c *Client) Open(spec Spec) (o Opened, err error) {
	body, err := json.Marshal(spec)
	if err == nil {
		_, err = do("open session", http.MethodPost, c.base+"/v1/sessions", "application/json", body, http.StatusCreated, &o)
	}
	return o, err
}

// Stream posts the chunks of one session's event stream, in one format,
// under one retry budget.
type Stream struct {
	url, contentType string
	budget           int // retries left; a negative budget never runs out
	retries          int
}

// Stream starts posting events of format into session id.
func (c *Client) Stream(id string, format Format) *Stream {
	return &Stream{url: c.url(id, "/events"), contentType: format.ContentType(), budget: c.RetryBudget}
}

// PostChunk posts one chunk and returns the events it completed. The
// server may split a chunk anywhere, even mid-record. A 429 rejected
// the chunk whole, with the server's decoder rolled back, so PostChunk
// waits RetryAfter and resends the identical bytes, which loses and
// duplicates nothing. Each retry spends one of the stream's budget; a
// 429 once the budget is spent fails with ErrRetryBudget.
func (s *Stream) PostChunk(chunk []byte) (int, error) {
	for {
		var ack Ingested
		_, err := do("ingest", http.MethodPost, s.url, s.contentType, chunk, http.StatusAccepted, &ack)
		var se *statusError
		if !errors.As(err, &se) || se.status != http.StatusTooManyRequests {
			return ack.Accepted, err
		}
		if s.budget == 0 {
			return 0, ErrRetryBudget
		}
		if s.budget > 0 {
			s.budget--
		}
		s.retries++
		time.Sleep(RetryAfter(se.header))
	}
}

// Retries reports the 429 retries the stream has spent.
func (s *Stream) Retries() int { return s.retries }

// Scores reads the session's current scores.
func (c *Client) Scores(id string) (sc Scores, err error) {
	_, err = do("scores", http.MethodGet, c.url(id, "/scores"), "", nil, http.StatusOK, &sc)
	return sc, err
}

// Close closes the session and returns its final scores document as the
// server sent it, so the bytes compare against `paco-trace replay
// -scores` of the same events.
func (c *Client) Close(id string) ([]byte, error) {
	return do("close session", http.MethodDelete, c.url(id, ""), "", nil, http.StatusOK, nil)
}

// Live subscribes to the session's /live stream of score snapshots:
// read it with Frames (a "scores" frame per update, a terminal "final"
// one when the session closes) and close it when done.
func (c *Client) Live(id string) (io.ReadCloser, error) {
	resp, err := http.Get(c.url(id, "/live"))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		resp.Body.Close()
		return nil, &statusError{"live", resp.StatusCode, resp.Header, data}
	}
	return resp.Body, nil
}

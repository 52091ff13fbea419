package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"strings"

	"paco/internal/obs"
	"paco/internal/session"
)

// The /v1/sessions surface: live estimator sessions over event streams.
// A client opens a session from a spec (content-addressed like job
// specs), streams branch events into it in chunks — NDJSON lines or raw
// internal/trace binary frames, whichever the first chunk used — and
// reads rolling scores by polling /scores or subscribing to /live (SSE).
// DELETE closes the session and returns its final scores, rendered with
// the same encoder as every other endpoint so they are byte-comparable
// to `paco-trace replay -scores` output for the same events.
//
// The five handlers here are the only ones. They are written against a
// sessionBackend: this process's session.Table or, with
// Config.RouteSessions, the session router (sessionrouter.go), which
// keeps each session on a federation worker and fails it over when the
// worker dies. Both return the table's typed values and errors, so the
// error→status mapping (sessionError), the SSE writer and the trace
// header handling exist once.

// sessionBackend serves the /v1/sessions handlers. *session.Table
// implements it through localSessions; *sessionRouter implements it
// directly.
type sessionBackend interface {
	Open(spec session.Spec, trace string) (sessionOpened, error)
	Ingest(id string, format session.Format, chunk []byte) (accepted, queued int, err error)
	Scores(id string) (session.Scores, error)
	Subscribe(id string) (<-chan session.Scores, func(), error)
	Close(id, reason string) (session.Scores, error)
}

// localSessions serves sessions from this process's table.
type localSessions struct{ *session.Table }

func (l localSessions) Open(spec session.Spec, trace string) (sessionOpened, error) {
	id, key, norm, err := l.Table.Open(spec, trace)
	return sessionOpened{ID: id, Key: key, Spec: norm}, err
}

// maxSessionChunk bounds one ingest chunk's wire size (4 MiB ≈ 190k
// binary records). The per-session queue bound is separate and governs
// backpressure; this is just the HTTP-layer sanity cap that also bounds
// how far past the queue's high-water mark a single chunk can land.
const maxSessionChunk = 4 << 20

// sessionOpened is the POST /v1/sessions response. Worker names the
// owning federation worker when the session was routed (empty — and
// omitted — for sessions served by the local table).
type sessionOpened struct {
	ID     string       `json:"id"`
	Key    string       `json:"key"`
	Spec   session.Spec `json:"spec"`
	Worker string       `json:"worker,omitempty"`
}

// sessionIngested is the POST /v1/sessions/{id}/events response:
// how many events this chunk completed and the queue depth after.
type sessionIngested struct {
	Accepted int `json:"accepted"`
	Queued   int `json:"queued"`
}

// sessionError answers a failed session request with the error's
// status: unknown session 404; recently closed session 410 with the
// close reason, so a DELETE racing the idle sweeper sees a deterministic
// "gone: evicted" instead of a flaky not-found; format mix-up 409; full
// queue 429 with Retry-After (the chunk was not consumed — retry the
// identical bytes); table full, shutting down or no session worker 503;
// anything else — bad specs, undecodable chunks — 400. A rejected chunk
// is rolled back whole, so the session stays readable and closeable and
// a resend of corrected bytes continues the stream.
func sessionError(w http.ResponseWriter, err error) {
	var gone *session.GoneError
	var bp *session.BackpressureError
	var fe *session.FormatError
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, session.ErrNotFound):
		status = http.StatusNotFound
	case errors.As(err, &gone):
		status = http.StatusGone
	case errors.As(err, &bp):
		// Whole seconds, rounded up so a sub-second hint never becomes
		// "retry immediately".
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(bp.RetryAfter.Seconds()))))
		status = http.StatusTooManyRequests
	case errors.As(err, &fe):
		status = http.StatusConflict
	case errors.Is(err, session.ErrTableFull), errors.Is(err, session.ErrShutdown),
		errors.Is(err, errNoSessionWorker):
		status = http.StatusServiceUnavailable
	}
	errorJSON(w, status, "%v", err)
}

// handleSessionOpen is POST /v1/sessions: spec in (an empty body selects
// the zero spec, one default PaCo estimator; anything else must be a
// strict JSON spec), session ID and content key out.
func (s *Server) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, 1<<20, "reading body")
	if !ok {
		return
	}
	var spec session.Spec
	if len(bytes.TrimSpace(body)) > 0 {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			errorJSON(w, http.StatusBadRequest, "parsing session spec: %v", err)
			return
		}
	}
	trace := r.Header.Get(obs.TraceHeader)
	if trace == "" {
		trace = obs.NewTraceID()
	}
	opened, err := s.backend.Open(spec, trace)
	if err != nil {
		sessionError(w, err)
		return
	}
	w.Header().Set(obs.TraceHeader, trace)
	writeJSON(w, http.StatusCreated, opened)
}

// sessionFormat picks the ingest encoding from the request Content-Type:
// binary trace frames announce themselves as application/octet-stream,
// everything else streams as NDJSON. The session locks onto whichever
// format its first chunk used.
func sessionFormat(r *http.Request) session.Format {
	if strings.Contains(r.Header.Get("Content-Type"), "octet-stream") {
		return session.FormatBinary
	}
	return session.FormatNDJSON
}

// handleSessionEvents is POST /v1/sessions/{id}/events: chunked ingest.
// 202 acknowledges the chunk (events decoded and queued — they are never
// dropped after this); 429 + Retry-After rejects it whole, with decoder
// state rolled back so retrying the identical bytes is lossless.
func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, maxSessionChunk, "reading events")
	if !ok {
		return
	}
	accepted, queued, err := s.backend.Ingest(r.PathValue("id"), sessionFormat(r), body)
	if err != nil {
		sessionError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, sessionIngested{Accepted: accepted, Queued: queued})
}

// handleSessionScores is GET /v1/sessions/{id}/scores: a point-in-time
// snapshot (and an activity signal to the idle sweeper).
func (s *Server) handleSessionScores(w http.ResponseWriter, r *http.Request) {
	sc, err := s.backend.Scores(r.PathValue("id"))
	if err != nil {
		sessionError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sc)
}

// handleSessionLive is GET /v1/sessions/{id}/live: a Server-Sent Events
// stream of score snapshots. The stream opens with the current snapshot,
// emits a "scores" event after each shard-worker drain (latest-wins — a
// slow reader skips intermediate states), and ends with a terminal
// "final" event when the session closes or is evicted. The subscription
// is made before the 200 is written, so a closed or unknown session
// gets its 410/404 verdict rather than an empty stream.
func (s *Server) handleSessionLive(w http.ResponseWriter, r *http.Request) {
	ch, cancel, err := s.backend.Subscribe(r.PathValue("id"))
	if err != nil {
		sessionError(w, err)
		return
	}
	defer cancel()
	send, ok := sseStart(w)
	if !ok {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case sc, open := <-ch:
			if !open {
				return
			}
			data, err := json.Marshal(sc)
			if err != nil {
				return
			}
			name := "scores"
			if sc.Final {
				name = "final"
			}
			send(name, data)
			if sc.Final {
				return
			}
		}
	}
}

// handleSessionClose is DELETE /v1/sessions/{id}: drain the queue, squash
// in-flight branches, and return the final scores — the same document
// offline replay of the session's event stream produces.
func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	final, err := s.backend.Close(r.PathValue("id"), session.CloseClient)
	if err != nil {
		sessionError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, final)
}

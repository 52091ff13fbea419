package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"sync"

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
// directly. Ingest borrows chunk for the length of the call and keeps
// no reference to it: the handler recycles the buffer afterwards.
type sessionBackend interface {
	Open(spec session.Spec, trace string) (session.Opened, error)
	Ingest(id string, format session.Format, chunk []byte) (accepted, queued int, err error)
	Scores(id string) (session.Scores, error)
	Subscribe(id string) (<-chan session.Scores, func(), error)
	Close(id, reason string) (session.Scores, error)
}

// localSessions serves sessions from this process's table.
type localSessions struct{ *session.Table }

func (l localSessions) Open(spec session.Spec, trace string) (session.Opened, error) {
	id, key, norm, err := l.Table.Open(spec, trace)
	return session.Opened{ID: id, Key: key, Spec: norm}, err
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
		if err := decodeSpec(body, &spec); err != nil {
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

// bodyPool recycles request and response bodies: session ingest
// chunks, job specs and the head of a job hit's response. A handler
// only borrows one for its own length: a session backend's Ingest call
// decodes the chunk onto the session's queue, or forwards and journals
// a copy, a job submission keeps only what it decoded from the spec and
// the spec's digest, and a written response has been copied out.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// handleSessionEvents is POST /v1/sessions/{id}/events: chunked ingest.
// 202 acknowledges the chunk (events decoded and queued — they are never
// dropped after this); 429 + Retry-After rejects it whole, with decoder
// state rolled back so retrying the identical bytes is lossless.
func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	buf := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(buf)
	body, ok := readBodyInto(*buf, w, r, session.MaxChunk, "reading events")
	*buf = body
	if !ok {
		return
	}
	accepted, queued, err := s.backend.Ingest(r.PathValue("id"), session.FormatOf(r.Header.Get("Content-Type")), body)
	if err != nil {
		sessionError(w, err)
		return
	}
	writeIngested(w, accepted, queued)
}

// writeIngested answers 202 with the ack writeJSON would write for
// session.Ingested{accepted, queued}, byte for byte, but without
// reflection: the ack is the one reply every chunk gets.
func writeIngested(w http.ResponseWriter, accepted, queued int) {
	b := make([]byte, 0, 64)
	b = append(b, `{"accepted":`...)
	b = strconv.AppendInt(b, int64(accepted), 10)
	b = append(b, `,"queued":`...)
	b = strconv.AppendInt(b, int64(queued), 10)
	b = append(b, "}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	w.Write(b)
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
	writeIndentedJSON(w, http.StatusOK, final)
}

// writeIndentedJSON answers with v indented by two spaces plus a
// newline. Only the session close document is written this way: its
// bytes are a published contract, equal to `paco-trace replay -scores`
// of the same trace, which `paco-trace stream` prints verbatim and
// clients such as `paco-obs sessions -verify` compare byte for byte
// with json.MarshalIndent of offline replay.
func writeIndentedJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

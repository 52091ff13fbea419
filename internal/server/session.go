package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

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
// Error mapping: unknown session 404, recently closed session 410 with
// the close reason (so a DELETE racing the idle sweeper sees a
// deterministic "gone: evicted" instead of a flaky not-found), format
// mix-up 409, full queue 429 with Retry-After (the chunk was not
// consumed — retry the identical bytes), table full or shutting down
// 503, everything else a client error 400.
//
// With Config.RouteSessions the whole surface is served by the session
// router instead (see sessionrouter.go): same contract, but the session
// lives on a federation worker and survives that worker's death.

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

// readSessionSpec reads a POST /v1/sessions body, shared by the local
// and routed handlers: an empty body selects the zero spec, anything
// else must be a strict JSON spec. On failure it has answered the
// request and returns false.
func readSessionSpec(w http.ResponseWriter, r *http.Request) (session.Spec, bool) {
	var spec session.Spec
	body, ok := readBody(w, r, 1<<20, "reading body")
	if !ok {
		return spec, false
	}
	if len(bytes.TrimSpace(body)) > 0 {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			errorJSON(w, http.StatusBadRequest, "parsing session spec: %v", err)
			return spec, false
		}
	}
	return spec, true
}

// handleSessionOpen is POST /v1/sessions: spec in (the zero spec selects
// one default PaCo estimator), session ID and content key out.
func (s *Server) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	spec, ok := readSessionSpec(w, r)
	if !ok {
		return
	}
	trace := r.Header.Get(obs.TraceHeader)
	if trace == "" {
		trace = obs.NewTraceID()
	}
	id, key, norm, err := s.sessions.Open(spec, trace)
	if err != nil {
		if errors.Is(err, session.ErrTableFull) || errors.Is(err, session.ErrShutdown) {
			errorJSON(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
		errorJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set(obs.TraceHeader, trace)
	writeJSON(w, http.StatusCreated, sessionOpened{ID: id, Key: key, Spec: norm})
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
	accepted, queued, err := s.sessions.Ingest(r.PathValue("id"), sessionFormat(r), body)
	if err != nil {
		var bp *session.BackpressureError
		var fe *session.FormatError
		switch {
		case isSessionMiss(err):
			errorJSON(w, sessionMissStatus(err), "%v", err)
		case errors.As(err, &bp):
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(bp.RetryAfter)))
			errorJSON(w, http.StatusTooManyRequests, "%v", err)
		case errors.As(err, &fe):
			errorJSON(w, http.StatusConflict, "%v", err)
		default:
			// Decode errors and latched stream errors: the stream is bad,
			// but the session stays readable and closeable.
			errorJSON(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, sessionIngested{Accepted: accepted, Queued: queued})
}

// retryAfterSeconds renders a backoff hint as the integer seconds the
// Retry-After header requires, rounding up so a sub-second hint never
// becomes "retry immediately".
func retryAfterSeconds(d time.Duration) int {
	return int(math.Ceil(d.Seconds()))
}

// isSessionMiss reports whether err is a session-lookup miss, and
// sessionMissStatus distinguishes its two deterministic verdicts: 404
// for an ID the table never issued, 410 (with the close reason in the
// body) for a session that existed and has since closed — the verdict a
// DELETE racing the idle sweeper must see.
func isSessionMiss(err error) bool {
	var gone *session.GoneError
	return errors.Is(err, session.ErrNotFound) || errors.As(err, &gone)
}

func sessionMissStatus(err error) int {
	var gone *session.GoneError
	if errors.As(err, &gone) {
		return http.StatusGone
	}
	return http.StatusNotFound
}

// handleSessionScores is GET /v1/sessions/{id}/scores: a point-in-time
// snapshot (and an activity signal to the idle sweeper).
func (s *Server) handleSessionScores(w http.ResponseWriter, r *http.Request) {
	sc, err := s.sessions.Scores(r.PathValue("id"))
	if err != nil {
		errorJSON(w, sessionMissStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, sc)
}

// handleSessionLive is GET /v1/sessions/{id}/live: a Server-Sent Events
// stream of score snapshots. The stream opens with the current snapshot,
// emits a "scores" event after each shard-worker drain (latest-wins — a
// slow reader skips intermediate states), and ends with a terminal
// "final" event when the session closes or is evicted.
func (s *Server) handleSessionLive(w http.ResponseWriter, r *http.Request) {
	ch, cancel, err := s.sessions.Subscribe(r.PathValue("id"))
	if err != nil {
		errorJSON(w, sessionMissStatus(err), "%v", err)
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
	final, err := s.sessions.Close(r.PathValue("id"), session.CloseClient)
	if err != nil {
		errorJSON(w, sessionMissStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, final)
}

package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"paco/internal/obs"
)

// Debug surface: GET /debug/flight dumps the span flight recorder,
// GET /debug/dash serves the live dashboard, GET/PUT /debug/loglevel
// dial the runtime log level, and (only when Config.EnablePprof is set)
// /debug/pprof/ mounts the standard runtime profiles on the server's
// own mux — never on http.DefaultServeMux, so an unconfigured server
// exposes nothing.

// FlightReport is the body of GET /debug/flight: recorder totals plus
// the retained spans matching the query filters, oldest first.
type FlightReport struct {
	// Capacity is how many finished spans the ring retains; Recorded
	// counts spans ever committed; Dropped counts spans the ring
	// overwrote (nonzero means the history below is incomplete); Active
	// counts spans started but not yet ended (nonzero on a quiescent
	// server means a leaked span).
	Capacity int    `json:"capacity"`
	Recorded uint64 `json:"recorded"`
	Dropped  uint64 `json:"dropped"`
	Active   int64  `json:"active"`

	Spans []obs.SpanRecord `json:"spans"`
}

// handleFlight is GET /debug/flight. Query parameters: kind and trace
// filter spans, since (RFC 3339) keeps only spans that ended strictly
// after it — pass the End of the last span seen to poll incrementally —
// and limit keeps only the most recent N matches.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	f := obs.Filter{
		Kind:  r.URL.Query().Get("kind"),
		Trace: r.URL.Query().Get("trace"),
	}
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			errorJSON(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		f.Limit = n
	}
	if v := r.URL.Query().Get("since"); v != "" {
		t, err := time.Parse(time.RFC3339Nano, v)
		if err != nil {
			errorJSON(w, http.StatusBadRequest, "bad since %q (want RFC 3339): %v", v, err)
			return
		}
		f.Since = t
	}
	rec := s.obs.rec
	report := FlightReport{
		Capacity: rec.Capacity(),
		Recorded: rec.Recorded(),
		Dropped:  rec.Dropped(),
		Active:   rec.Active(),
		Spans:    rec.Snapshot(f),
	}
	writeJSON(w, http.StatusOK, report)
}

// handleLogLevel is GET/PUT /debug/loglevel: read or set the level the
// structured logger filters by. The PUT body is either a bare level
// name ("debug") or {"level": "debug"}. Only available when the server
// was built with Config.LogLevel — the handler cannot retune a handler
// it has no dial into.
func (s *Server) handleLogLevel(w http.ResponseWriter, r *http.Request) {
	lv := s.obs.level
	if lv == nil {
		errorJSON(w, http.StatusNotImplemented,
			"runtime log-level control is not wired (server built without Config.LogLevel)")
		return
	}
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, map[string]string{"level": lv.Level().String()})
	case http.MethodPut, http.MethodPost:
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<10))
		if err != nil {
			errorJSON(w, http.StatusBadRequest, "reading body: %v", err)
			return
		}
		name := string(body)
		var obj struct {
			Level string `json:"level"`
		}
		if json.Unmarshal(body, &obj) == nil && obj.Level != "" {
			name = obj.Level
		} else if unq, err := strconv.Unquote(name); err == nil {
			name = unq // a bare JSON string: "debug"
		}
		level, err := obs.ParseLevel(strings.TrimSpace(name))
		if err != nil {
			errorJSON(w, http.StatusBadRequest, "%v", err)
			return
		}
		prev := lv.Level()
		lv.Set(level)
		s.obs.log.Info("log level changed", "from", prev.String(), "to", level.String())
		writeJSON(w, http.StatusOK, map[string]string{"level": level.String()})
	default:
		errorJSON(w, http.StatusMethodNotAllowed, "use GET or PUT")
	}
}

// registerDebug mounts the debug routes on the server mux.
func (s *Server) registerDebug(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/flight", s.handleFlight)
	mux.HandleFunc("GET /debug/dash", s.handleDash)
	mux.HandleFunc("/debug/loglevel", s.handleLogLevel)
	if !s.cfg.EnablePprof {
		return
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

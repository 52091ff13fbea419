package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"strconv"
	"strings"
	"sync/atomic"
)

// Trace IDs. A trace ID is minted once per unit of externally visible
// work (paco-serve mints one at POST /v1/jobs when the client didn't
// supply its own) and threaded through every span, log line, and
// coordinator→worker hop via the TraceHeader HTTP header — so one grep
// over structured logs, or one /debug/flight?trace= query, correlates a
// distributed run end-to-end.

// TraceHeader is the HTTP header that carries a trace ID between
// processes: set by clients on POST /v1/jobs, echoed on responses, sent
// coordinator→worker on lease responses, and returned worker→
// coordinator on renew/result posts.
const TraceHeader = "X-Paco-Trace"

// tracePrefix makes IDs from different processes distinguishable: 4
// random bytes, hex. The process-local counter provides uniqueness.
var tracePrefix = func() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "paco0000"
	}
	return hex.EncodeToString(b[:])
}()

var traceCounter atomic.Uint64

// NewTraceID mints a process-unique trace ID: "<prefix>-<counter>".
// IDs are identifiers, not secrets; they only need to not collide
// across the processes of one deployment.
func NewTraceID() string {
	var num, id [32]byte
	hex := strconv.AppendUint(num[:0], traceCounter.Add(1), 16)
	b := append(append(id[:0], tracePrefix...), '-')
	b = append(b, "000000"[min(len(hex), 6):]...) // at least six digits
	return string(append(b, hex...))
}

// TraceKey is the slog attribute key every trace-scoped log line uses,
// so `grep 'trace=<id>'` (text handler) or a JSON field match pulls one
// run's lines from interleaved output.
const TraceKey = "trace"

// NopLogger returns a logger that discards everything — the default for
// library components whose caller didn't wire logging.
func NopLogger() *slog.Logger {
	return slog.New(slog.DiscardHandler)
}

// OrNop returns l, or a discarding logger when l is nil, so components
// can log unconditionally.
func OrNop(l *slog.Logger) *slog.Logger {
	if l == nil {
		return NopLogger()
	}
	return l
}

// ParseLevel parses a log level name ("debug", "info", "warn"/"warning",
// "error", any case, plus slog's "INFO+2" offset form) — the shared
// parser behind the -log-level flag and PUT /debug/loglevel.
func ParseLevel(s string) (slog.Level, error) {
	if strings.EqualFold(s, "warning") {
		s = "warn"
	}
	var l slog.Level
	if err := l.UnmarshalText([]byte(s)); err != nil {
		return 0, fmt.Errorf("unknown log level %q (want debug, info, warn, or error)", s)
	}
	return l, nil
}

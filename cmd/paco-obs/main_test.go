package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// obsServer serves canned /metrics and /debug/flight bodies, the two
// surfaces lint and flight read, and records the last flight query.
func obsServer(t *testing.T, metrics, flight string) (*httptest.Server, *atomic.Value) {
	t.Helper()
	var flightQuery atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/metrics":
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			w.Write([]byte(metrics))
		case "/debug/flight":
			flightQuery.Store(r.URL.RawQuery)
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(flight))
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(srv.Close)
	return srv, &flightQuery
}

const cleanMetrics = `# HELP paco_jobs_total Jobs accepted.
# TYPE paco_jobs_total counter
paco_jobs_total 3
# HELP paco_queue_depth Queued jobs.
# TYPE paco_queue_depth gauge
paco_queue_depth{queue="sim"} 1
`

// twoSpans is a /debug/flight body holding two shard.lease spans, one
// of them failed.
const twoSpans = `{"capacity":64,"recorded":2,"active":0,"spans":[
{"id":1,"kind":"shard.lease","name":"shard 0","start":"2026-01-01T00:00:00Z","end":"2026-01-01T00:00:01Z","duration_ms":1000},
{"id":2,"kind":"shard.lease","name":"shard 1","start":"2026-01-01T00:00:00Z","end":"2026-01-01T00:00:01Z","duration_ms":1000,"error":"lease expired"}]}`

func TestLintClean(t *testing.T) {
	srv, _ := obsServer(t, cleanMetrics, twoSpans)
	if err := run([]string{"lint", srv.URL}); err != nil {
		t.Fatalf("clean exposition: %v", err)
	}
}

func TestLintDuplicateSeries(t *testing.T) {
	dup := cleanMetrics + `paco_queue_depth{queue="sim"} 2
`
	srv, _ := obsServer(t, dup, twoSpans)
	err := run([]string{"lint", srv.URL})
	if err == nil || err.Error() != "1 exposition problem(s)" {
		t.Fatalf("duplicated series: err = %v", err)
	}
}

func TestFlightMin(t *testing.T) {
	srv, query := obsServer(t, cleanMetrics, twoSpans)
	if err := run([]string{"flight", srv.URL, "-kind", "shard.lease", "-min", "2"}); err != nil {
		t.Fatalf("-min 2 over two spans: %v", err)
	}
	if q := query.Load(); q != "kind=shard.lease" {
		t.Fatalf("flight query = %q, want kind=shard.lease", q)
	}
	err := run([]string{"flight", srv.URL, "-min", "3"})
	if err == nil || !strings.Contains(err.Error(), "2 span(s) match, want >= 3") {
		t.Fatalf("-min 3 over two spans: err = %v", err)
	}
}

func TestUnknownSubcommand(t *testing.T) {
	err := run([]string{"scrape", "http://127.0.0.1:1"})
	if err == nil || !strings.Contains(err.Error(), `unknown subcommand "scrape"`) {
		t.Fatalf("unknown subcommand: err = %v", err)
	}
	err = run([]string{"lint"})
	if err == nil || !strings.Contains(err.Error(), "lint|flight|watch|report|sessions") {
		t.Fatalf("missing base URL: err = %v", err)
	}
}

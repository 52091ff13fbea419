package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"paco/internal/obs"
)

// legacyMetricNames is the golden list of every family the pre-registry
// /metrics handler exported. The obs migration must preserve each one
// name-for-name; a rename here is a monitoring break for anyone with
// dashboards or alerts on the old names.
var legacyMetricNames = []string{
	"paco_build_info",
	"paco_uptime_seconds",
	"paco_queue_depth",
	"paco_queue_capacity",
	"paco_jobs_inflight",
	"paco_jobs_total",
	"paco_simulations_total",
	"paco_sim_cells_total",
	"paco_cache_hits_total",
	"paco_cache_misses_total",
	"paco_cache_entries",
	"paco_cache_bytes",
	"paco_cache_budget_bytes",
	"paco_sim_cycles_total",
	"paco_sim_wall_seconds_total",
	"paco_sim_samples_total",
	"paco_sim_kcycles_per_sec",
	"paco_sim_kcycles_per_sec_last",
	"paco_federation_shards_pending",
	"paco_federation_shards_leased",
	"paco_federation_shards_completed_total",
	"paco_federation_shard_retries_total",
	"paco_federation_lease_age_seconds_max",
	"paco_federation_workers_live",
	"paco_federation_worker_last_seen_seconds",
}

// newMetricNames are the families the obs layer introduced.
var newMetricNames = []string{
	"paco_sim_cell_duration_seconds",
	"paco_sim_cell_queue_wait_seconds",
	"paco_http_requests_total",
	"paco_http_request_duration_seconds",
	"paco_cache_lookups_total",
	"paco_job_admit_duration_seconds",
	"paco_session_open",
	"paco_session_queued_events",
	"paco_session_opened_total",
	"paco_session_closed_total",
	"paco_session_open_rejected_total",
	"paco_session_events_total",
	"paco_session_backpressure_total",
	"paco_session_ingest_duration_seconds",
	"paco_session_apply_batch_events",
	"paco_session_routed_open",
	"paco_session_routed_journal_bytes",
	"paco_session_routed_opened_total",
	"paco_session_routed_closed_total",
	"paco_session_routed_chunks_total",
	"paco_session_failover_total",
	"paco_session_failover_replayed_chunks_total",
	"paco_sim_job_kcycles_per_sec",
	"paco_flight_spans_recorded_total",
	"paco_flight_spans_active",
	"obs_spans_dropped_total",
	"paco_go_goroutines",
	"paco_go_memstats_heap_alloc_bytes",
	"paco_go_gc_pause_seconds_total",
	"paco_go_gc_cycles_total",
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestMetricsGoldenNames pins the exposition's family set: every legacy
// name survives the registry migration, and the new instrumentation
// families are present. HELP/TYPE render even for quiet families, so
// this holds on a freshly started server too.
func TestMetricsGoldenNames(t *testing.T) {
	_, ts := testServer(t, Config{JobWorkers: 1, QueueSize: 4, CacheBytes: 1 << 20})
	st, _ := postJob(t, ts, tinySpec)
	final := waitDone(t, ts, st.ID)

	body := scrape(t, ts.URL)
	for _, name := range append(append([]string{}, legacyMetricNames...), newMetricNames...) {
		if !strings.Contains(body, "# TYPE "+name+" ") {
			t.Errorf("family %s missing from /metrics", name)
		}
	}
	// The per-cell histograms must actually observe local runs: one
	// observation per campaign cell.
	want := fmt.Sprintf("paco_sim_cell_duration_seconds_count %d", final.Cells.Total)
	if !strings.Contains(body, want) {
		t.Errorf("cell duration histogram: want %q:\n%s",
			want, grepMetrics(body, "paco_sim_cell_duration_seconds"))
	}
}

// TestMetricsExpositionLint runs the strict exposition-format linter
// over a live scrape taken after real traffic, so labeled series,
// histograms, and callback families all get exercised.
func TestMetricsExpositionLint(t *testing.T) {
	_, ts := testServer(t, Config{JobWorkers: 1, QueueSize: 4, CacheBytes: 1 << 20})
	st, _ := postJob(t, ts, tinySpec)
	waitDone(t, ts, st.ID)

	body := scrape(t, ts.URL)
	if errs := obs.LintExposition(strings.NewReader(body)); len(errs) > 0 {
		for _, err := range errs {
			t.Errorf("lint: %v", err)
		}
	}
}

// TestJobTraceHeader checks trace minting and propagation at the API
// edge: a client-supplied X-Paco-Trace is adopted and echoed, and an
// absent one is replaced by a freshly minted ID, visible in both the
// response header and the job status document.
func TestJobTraceHeader(t *testing.T) {
	_, ts := testServer(t, Config{JobWorkers: 1, QueueSize: 4, CacheBytes: 1 << 20})

	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(tinySpec))
	req.Header.Set(obs.TraceHeader, "t-client-chosen")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.TraceHeader); got != "t-client-chosen" {
		t.Errorf("%s echoed %q, want the client's trace ID", obs.TraceHeader, got)
	}
	if st.Trace != "t-client-chosen" {
		t.Errorf("JobStatus.Trace = %q, want the client's trace ID", st.Trace)
	}
	waitDone(t, ts, st.ID)

	// Without a client header the server mints one.
	st2, _ := postJob(t, ts, `{"benchmarks":["twolf"],"instructions":12000,"warmup":4000}`)
	if st2.Trace == "" {
		t.Error("server did not mint a trace ID for a headerless submit")
	}
	waitDone(t, ts, st2.ID)
}

// TestFlightEndpoint drives a job and reads back its span chain from
// /debug/flight: one job span plus one cell span per campaign cell,
// all under the job's trace, with nothing left active.
func TestFlightEndpoint(t *testing.T) {
	s, ts := testServer(t, Config{JobWorkers: 1, QueueSize: 4, CacheBytes: 1 << 20})
	st, _ := postJob(t, ts, tinySpec)
	final := waitDone(t, ts, st.ID)

	resp, err := http.Get(ts.URL + "/debug/flight?trace=" + st.Trace)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var report FlightReport
	if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	var jobSpans, cellSpans int
	var jobID uint64
	for _, sp := range report.Spans {
		switch sp.Kind {
		case "job":
			jobSpans++
			jobID = sp.ID
		case "cell":
			cellSpans++
		}
	}
	if jobSpans != 1 || cellSpans != final.Cells.Total {
		t.Fatalf("trace %s: %d job + %d cell spans, want 1 + %d:\n%+v",
			st.Trace, jobSpans, cellSpans, final.Cells.Total, report.Spans)
	}
	for _, sp := range report.Spans {
		if sp.Kind == "cell" && sp.Parent != jobID {
			t.Errorf("cell span %s parented to %d, want job span %d", sp.Name, sp.Parent, jobID)
		}
	}
	if got := s.obs.rec.Active(); got != 0 {
		t.Errorf("%d spans still active after job completion", got)
	}

	// A bad limit is a client error, not a panic.
	bad, err := http.Get(ts.URL + "/debug/flight?limit=banana")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("limit=banana → %d, want 400", bad.StatusCode)
	}
}

// TestPprofGating: /debug/pprof/ is absent by default and mounted only
// with EnablePprof.
func TestPprofGating(t *testing.T) {
	_, off := testServer(t, Config{JobWorkers: 1, QueueSize: 4, CacheBytes: 1 << 20})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/pprof/ without EnablePprof → %d, want 404", resp.StatusCode)
	}

	_, on := testServer(t, Config{JobWorkers: 1, QueueSize: 4, CacheBytes: 1 << 20, EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ with EnablePprof → %d, want 200", resp.StatusCode)
	}
}

// grepMetrics returns the exposition lines mentioning name, for test
// failure messages.
func grepMetrics(body, name string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, name) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestHTTPRequestLabels pins the request counter's route and code
// labels: the mux pattern for a matched route, "other" for an unknown
// path and for a method the route does not take, and the events route's
// own pattern — whose handler must still reach the Flusher through the
// accounting wrapper, or it would answer 500.
func TestHTTPRequestLabels(t *testing.T) {
	_, ts := testServer(t, Config{})
	st, _ := postJob(t, ts, tinySpec)
	waitDone(t, ts, st.ID)
	for _, tc := range []struct {
		method, path string
		code         int
	}{
		{http.MethodGet, "/healthz", http.StatusOK},
		{http.MethodGet, "/no/such/path", http.StatusNotFound},
		{http.MethodDelete, "/healthz", http.StatusMethodNotAllowed},
		{http.MethodGet, "/v1/jobs/" + st.ID + "/events", http.StatusOK},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		code, body, err := doRaw(req)
		if err != nil || code != tc.code {
			t.Fatalf("%s %s = %d (%v), want %d", tc.method, tc.path, code, err, tc.code)
		}
		if strings.HasSuffix(tc.path, "/events") && !strings.Contains(string(body), "event: done") {
			t.Fatalf("events stream carries no done event:\n%s", body)
		}
	}
	body := scrape(t, ts.URL)
	for _, want := range []string{
		`paco_http_requests_total{route="POST /v1/jobs",code="202"} 1`,
		`paco_http_requests_total{route="GET /healthz",code="200"} 1`,
		`paco_http_requests_total{route="other",code="404"} 1`,
		`paco_http_requests_total{route="other",code="405"} 1`,
		`paco_http_requests_total{route="GET /v1/jobs/{id}/events",code="200"} 1`,
		`paco_http_request_duration_seconds_count{route="other"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("want %s:\n%s", want, grepMetrics(body, "paco_http_request"))
		}
	}
}

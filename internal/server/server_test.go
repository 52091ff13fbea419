package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"paco/internal/campaign"
	"paco/internal/experiments"
)

// testServer builds a started server at test scale plus its HTTP front.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Experiments == nil {
		quick := experiments.Quick()
		cfg.Experiments = &quick
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

const tinySpec = `{"benchmarks":["gzip"],"instructions":12000,"warmup":4000}`

func postJob(t *testing.T, ts *httptest.Server, body string) (JobStatus, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 400 {
		return JobStatus{}, resp.StatusCode
	}
	var st JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	return st, resp.StatusCode
}

func waitDone(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch st.Status {
		case stateDone:
			return st
		case stateFailed:
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 60s", id, st.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSubmitAndCacheHit is the PR's acceptance path: a job simulates
// once; an identical spec — spelled differently — is answered from the
// content-addressed cache without re-running, asserted by the hit/miss
// and simulation counters.
func TestSubmitAndCacheHit(t *testing.T) {
	s, ts := testServer(t, Config{})

	first, code := postJob(t, ts, tinySpec)
	if code != http.StatusAccepted {
		t.Fatalf("first POST status = %d, want 202", code)
	}
	if first.Cache != "miss" || first.Status != stateQueued {
		t.Fatalf("first POST = %+v, want queued miss", first)
	}
	done := waitDone(t, ts, first.ID)
	if len(done.Results) != 1 || done.Results[0].IPC <= 0 {
		t.Fatalf("done job carries no results: %+v", done)
	}
	if got := s.SimulationsRun(); got != 1 {
		t.Fatalf("simulations after first job = %d, want 1", got)
	}
	missesBefore := s.CacheStats().Misses

	// Same spec, different key order and whitespace, defaults spelled out.
	equivalent := `{"warmup":4000,  "instructions":12000, "widths":[4],
	                "gate_count":3, "benchmarks":["gzip"]}`
	second, code := postJob(t, ts, equivalent)
	if code != http.StatusOK {
		t.Fatalf("second POST status = %d, want 200", code)
	}
	if second.Cache != "hit" || second.Status != stateDone {
		t.Fatalf("second POST = %+v, want done hit", second)
	}
	if second.Key != first.Key {
		t.Fatalf("equivalent specs got different keys:\n%s\n%s", first.Key, second.Key)
	}
	if second.ID == first.ID {
		t.Fatal("cache hit reused the original job id")
	}
	if len(second.Results) != 1 {
		t.Fatalf("hit response carries no results: %+v", second)
	}
	if !resultsEqual(done.Results, second.Results) {
		t.Fatal("cached results differ from the original run")
	}
	if got := s.SimulationsRun(); got != 1 {
		t.Fatalf("simulations after cache hit = %d, want still 1", got)
	}
	st := s.CacheStats()
	if st.Hits < 1 || st.Misses != missesBefore {
		t.Fatalf("cache stats after hit = %+v (misses before: %d)", st, missesBefore)
	}
}

func resultsEqual(a, b []campaign.Result) bool { return reflect.DeepEqual(a, b) }

// TestSingleFlight: concurrent identical submissions collapse into one
// simulation. The worker pool is started only after every submission is
// in, so the race is deterministic.
func TestSingleFlight(t *testing.T) {
	quick := experiments.Quick()
	s, err := New(Config{Experiments: &quick})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 8
	statuses := make([]JobStatus, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tinySpec))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if err := json.NewDecoder(resp.Body).Decode(&statuses[i]); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	var misses, inflight int
	var missID string
	for _, st := range statuses {
		switch st.Cache {
		case "miss":
			misses++
			missID = st.ID
		case "inflight":
			inflight++
		default:
			t.Fatalf("unexpected cache outcome %q", st.Cache)
		}
	}
	if misses != 1 || inflight != n-1 {
		t.Fatalf("misses = %d, inflight = %d; want 1 and %d", misses, inflight, n-1)
	}
	for _, st := range statuses {
		if st.ID != missID {
			t.Fatalf("single-flighted submission got its own job %s (want %s)", st.ID, missID)
		}
	}

	s.Start()
	waitDone(t, ts, missID)
	if got := s.SimulationsRun(); got != 1 {
		t.Fatalf("concurrent identical submissions ran %d simulations, want 1", got)
	}
	s.Close()
}

// TestExperimentByteIdenticalToCLI is the other acceptance criterion:
// GET /v1/experiments/fig2 must return exactly the bytes the CLI writes
// — both cmd/paco and cmd/paco-repro render an experiment by calling
// experiments.Run(name, cfg, w), so that call is the reference output.
// A second GET is served from the content-addressed cache without
// re-running the experiment.
func TestExperimentByteIdenticalToCLI(t *testing.T) {
	quick := experiments.Quick()
	s, ts := testServer(t, Config{Experiments: &quick})

	var want bytes.Buffer
	if err := experiments.Run("fig2", quick, &want); err != nil {
		t.Fatal(err)
	}

	fetch := func() []byte {
		resp, err := http.Get(ts.URL + "/v1/experiments/fig2")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/experiments/fig2 = %d", resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	simsBefore := s.SimulationsRun()
	got := fetch()
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("HTTP fig2 differs from CLI output:\nHTTP:\n%s\nCLI:\n%s", got, want.Bytes())
	}
	if s.SimulationsRun() != simsBefore+1 {
		t.Fatalf("first GET ran %d experiments", s.SimulationsRun()-simsBefore)
	}
	hitsBefore := s.CacheStats().Hits
	again := fetch()
	if !bytes.Equal(again, want.Bytes()) {
		t.Fatal("cached report differs")
	}
	if s.SimulationsRun() != simsBefore+1 {
		t.Fatal("second GET re-ran the experiment")
	}
	if s.CacheStats().Hits != hitsBefore+1 {
		t.Fatalf("second GET not served from cache: hits %d -> %d", hitsBefore, s.CacheStats().Hits)
	}
}

// TestSSEStream subscribes to a job's event stream and expects the
// snapshot, at least one progress event, and the terminal done event.
func TestSSEStream(t *testing.T) {
	_, ts := testServer(t, Config{})
	st, _ := postJob(t, ts, `{"benchmarks":["gzip","twolf"],"instructions":12000,"warmup":4000}`)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	seen := map[string]int{}
	var finalData string
	sc := bufio.NewScanner(resp.Body)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			seen[event]++
		case strings.HasPrefix(line, "data: "):
			if event == "done" {
				finalData = strings.TrimPrefix(line, "data: ")
			}
		}
		if event == "done" && finalData != "" {
			break
		}
	}
	if seen["snapshot"] == 0 {
		t.Fatalf("no snapshot event; saw %v", seen)
	}
	if seen["done"] == 0 {
		t.Fatalf("no done event; saw %v", seen)
	}
	var final JobStatus
	if err := json.Unmarshal([]byte(finalData), &final); err != nil {
		t.Fatalf("final event data %q: %v", finalData, err)
	}
	if final.Status != stateDone || final.Cells.Done != 2 {
		t.Fatalf("final event = %+v", final)
	}
	// Streaming a settled job yields snapshot + done immediately.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body, _ := io.ReadAll(resp2.Body)
	if !strings.Contains(string(body), "event: snapshot") || !strings.Contains(string(body), "event: done") {
		t.Fatalf("settled-job stream missing events:\n%s", body)
	}
}

// TestMetricsAndHealthz checks the operational endpoints and the build
// stamp embedded in every response.
func TestMetricsAndHealthz(t *testing.T) {
	s, ts := testServer(t, Config{})
	st, _ := postJob(t, ts, tinySpec)
	waitDone(t, ts, st.ID)
	_ = s

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.Header.Get("X-Paco-Version") == "" {
		t.Fatal("missing X-Paco-Version header")
	}
	var health struct {
		Status  string `json:"status"`
		Version struct {
			Module  string `json:"module"`
			Version string `json:"version"`
		} `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Version.Module != "paco" || health.Version.Version == "" {
		t.Fatalf("healthz = %+v", health)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	text := string(body)
	for _, series := range []string{
		"paco_build_info{",
		"paco_queue_depth ",
		"paco_jobs_inflight ",
		`paco_jobs_total{status="done"} 1`,
		"paco_simulations_total 1",
		"paco_cache_hits_total ",
		"paco_cache_misses_total ",
		"paco_sim_cycles_total ",
		"paco_sim_kcycles_per_sec ",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("metrics missing %q:\n%s", series, text)
		}
	}
}

// TestRequestErrors covers the rejection paths.
func TestRequestErrors(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []struct {
		body string
		want int
	}{
		{`{not json`, http.StatusBadRequest},
		{`{"nonesuch_field":1}`, http.StatusBadRequest},
		{`{"benchmarks":["nonesuch"]}`, http.StatusBadRequest},
		{`{"widths":[-4]}`, http.StatusBadRequest},
		{`{"benchmarks":["gzip"],"widths":[1,2,3,4],"refresh":[1000,2000]}`, http.StatusOK}, // sanity: valid
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if tc.want == http.StatusOK {
			if resp.StatusCode >= 400 {
				t.Errorf("POST %s = %d, want success", tc.body, resp.StatusCode)
			}
		} else if resp.StatusCode != tc.want {
			t.Errorf("POST %s = %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}
	for _, path := range []string{"/v1/jobs/j-999999", "/v1/jobs/j-999999/events", "/v1/experiments/nonesuch"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestMaxJobsEviction: job records are bounded — beyond MaxJobs the
// oldest settled jobs are forgotten, while their results stay reachable
// through the content-addressed cache.
func TestMaxJobsEviction(t *testing.T) {
	s, ts := testServer(t, Config{MaxJobs: 2})
	specs := []string{
		`{"benchmarks":["gzip"],"instructions":12000,"warmup":4000}`,
		`{"benchmarks":["gzip"],"instructions":13000,"warmup":4000}`,
		`{"benchmarks":["gzip"],"instructions":14000,"warmup":4000}`,
	}
	ids := make([]string, len(specs))
	for i, spec := range specs {
		st, _ := postJob(t, ts, spec)
		ids[i] = st.ID
		waitDone(t, ts, st.ID)
	}
	// The third submission evicted the first settled record.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted job GET = %d, want 404", resp.StatusCode)
	}
	// But its result survives in the cache: an identical re-POST is a hit.
	st, code := postJob(t, ts, specs[0])
	if code != http.StatusOK || st.Cache != "hit" {
		t.Fatalf("re-POST after eviction = %d %+v, want cache hit", code, st)
	}
	if got := s.SimulationsRun(); got != 3 {
		t.Fatalf("simulations = %d, want 3", got)
	}

	// A job still running at the head of the table does not shield the
	// settled records behind it: they are evicted around it, and the
	// table holds MaxJobs records, the live one among them. A
	// coordinator with no workers keeps its job running.
	fs, fts := testServer(t, Config{MaxJobs: 2, Shards: 1})
	running, _ := postJob(t, fts, tinySpec)
	var hits []string
	for n := 1; n <= 5; n++ {
		grid, _ := sweepPayload(t, fs, n)
		spec, err := json.Marshal(grid)
		if err != nil {
			t.Fatal(err)
		}
		st, code := postJob(t, fts, string(spec))
		if code != http.StatusOK || st.Cache != "hit" {
			t.Fatalf("stored grid %d POST = %d %q, want a hit", n, code, st.Cache)
		}
		hits = append(hits, st.ID)
		fs.mu.Lock()
		records, tracked := len(fs.jobs), len(fs.jobOrder)+len(fs.held)
		fs.mu.Unlock()
		if records > 2 || tracked != records {
			t.Fatalf("after hit %d: %d records, %d tracked for eviction; want at most 2, all tracked", n, records, tracked)
		}
	}
	live := []string{running.ID, hits[len(hits)-1]}
	for _, id := range append(live, hits[:len(hits)-1]...) {
		resp, err := http.Get(fts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := http.StatusNotFound
		if id == live[0] || id == live[1] {
			want = http.StatusOK
		}
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", id, resp.StatusCode, want)
		}
	}
	if st := jobByID(t, fs, running.ID).status(false); st.Status == stateDone || st.Status == stateFailed {
		t.Fatalf("the head job settled (%s); the test needs it live", st.Status)
	}
}

// TestGridTooLarge rejects sweeps beyond the configured cell limit.
func TestGridTooLarge(t *testing.T) {
	_, ts := testServer(t, Config{MaxCells: 4})
	_, code := postJob(t, ts, `{"benchmarks":["gzip"],"widths":[1,2,3,4,5]}`)
	if code != http.StatusBadRequest {
		t.Fatalf("oversized grid accepted with %d", code)
	}
}

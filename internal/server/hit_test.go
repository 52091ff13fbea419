package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"paco/internal/campaign"
	"paco/internal/obs"
)

// gatedSpec is a sweep-shaped grid: two benchmarks × two refresh
// periods × two gates, eight cells that each carry an Extra map.
const gatedSpec = `{"benchmarks":["gzip","twolf"],"refresh":[20000,50000],` +
	`"prob_gates":[0.2,0.4],"instructions":12000,"warmup":4000,"seed":7}`

// postRaw POSTs a job spec with a fixed trace and returns the raw body.
func postRaw(t *testing.T, ts *httptest.Server, spec string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.TraceHeader, "hit-test-trace")
	code, body, err := doRaw(req)
	if err != nil {
		t.Fatal(err)
	}
	return code, body
}

func getRaw(t *testing.T, url string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	code, body, err := doRaw(req)
	if err != nil {
		t.Fatal(err)
	}
	return code, body
}

func doRaw(req *http.Request) (int, []byte, error) {
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// storedPayload decodes the cache entry behind a spec, the way
// admission decoded every hit before it kept results as stored bytes.
func storedPayload(t *testing.T, s *Server, spec string) cachedPayload {
	t.Helper()
	data, ok := s.cache.Lookup(keyOf(t, spec))
	if !ok {
		t.Fatalf("no cache entry for %s", spec)
	}
	var p cachedPayload
	if err := json.Unmarshal(data, &p); err != nil {
		t.Fatal(err)
	}
	return p
}

func jobByID(t *testing.T, s *Server, id string) *job {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		t.Fatalf("no job %s", id)
	}
	return j
}

// typedHitBody is how a hit was rendered before hits kept their results
// as stored bytes: the status with the decoded results, through
// writeJSON.
func typedHitBody(j *job, results []campaign.Result) []byte {
	st := j.status(false)
	st.Results = results
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, st)
	return rec.Body.Bytes()
}

// checkHitRendering asserts every rendering of hit job id against its
// typed rendering: the POST body it was answered with, GET
// /v1/jobs/{id}, /results and the SSE stream.
func checkHitRendering(t *testing.T, s *Server, ts *httptest.Server, spec, id string, postBody []byte) {
	t.Helper()
	results := storedPayload(t, s, spec).Results
	j := jobByID(t, s, id)
	want := typedHitBody(j, results)
	if !bytes.Equal(postBody, want) {
		t.Errorf("hit POST body differs from the typed rendering:\n got %s\nwant %s", postBody, want)
	}
	if code, got := getRaw(t, ts.URL+"/v1/jobs/"+id); code != http.StatusOK || !bytes.Equal(got, want) {
		t.Errorf("GET job = %d, differs from the typed rendering:\n got %s\nwant %s", code, got, want)
	}
	var wantResults bytes.Buffer
	campaign.WriteJSON(&wantResults, results)
	if code, got := getRaw(t, ts.URL+"/v1/jobs/"+id+"/results"); code != http.StatusOK || !bytes.Equal(got, wantResults.Bytes()) {
		t.Errorf("GET results = %d, differs from campaign.WriteJSON:\n got %s\nwant %s", code, got, wantResults.Bytes())
	}
	snap, err := json.Marshal(j.status(false))
	if err != nil {
		t.Fatal(err)
	}
	wantSSE := fmt.Sprintf("event: snapshot\ndata: %s\n\nevent: done\ndata: %s\n\n", snap, snap)
	if code, got := getRaw(t, ts.URL+"/v1/jobs/"+id+"/events"); code != http.StatusOK || string(got) != wantSSE {
		t.Errorf("SSE stream = %d:\n got %s\nwant %s", code, got, wantSSE)
	}
}

// TestHitResponsesByteIdentical: a hit answered from the stored bytes
// renders byte-for-byte as it did when hits decoded their results —
// for a simulated gated sweep (whose miss job's results it must also
// match) and for a stored grid with failed and skipped cells, and again
// after a restart on the same cache directory.
func TestHitResponsesByteIdentical(t *testing.T) {
	dir := t.TempDir()
	s, ts := testServer(t, Config{CacheDir: dir})

	first, _ := postJob(t, ts, gatedSpec)
	waitDone(t, ts, first.ID)
	code, hitBody := postRaw(t, ts, gatedSpec)
	if code != http.StatusOK || !bytes.Contains(hitBody, []byte(`"cache": "hit"`)) {
		t.Fatalf("re-POST = %d %s, want a hit", code, hitBody)
	}
	var hit JobStatus
	if err := json.Unmarshal(hitBody, &hit); err != nil {
		t.Fatal(err)
	}
	if len(hit.Results) != 8 || hit.Results[0].Extra["rms_error"] == 0 {
		t.Fatalf("hit carries %d results, first %+v; want 8 gated cells", len(hit.Results), hit.Results)
	}
	checkHitRendering(t, s, ts, gatedSpec, hit.ID, hitBody)
	_, missResults := getRaw(t, ts.URL+"/v1/jobs/"+first.ID+"/results")
	_, hitResults := getRaw(t, ts.URL+"/v1/jobs/"+hit.ID+"/results")
	if !bytes.Equal(missResults, hitResults) {
		t.Error("the hit's results differ from the simulated job's")
	}

	// A stored grid whose cells failed or were skipped, with error text
	// that exercises JSON escaping.
	const failedSpec = `{"benchmarks":["gzip"],"widths":[2,4,8],"instructions":15000,"warmup":4000}`
	results := []campaign.Result{
		{JobID: "gzip/w2", Index: 0, Benchmark: "gzip", Seed: 3, Cycles: 4242, IPC: 1.0625,
			Extra: map[string]float64{"rms_error": 0.125, "probe_instances": 3}},
		{JobID: "gzip/w4", Index: 1, Benchmark: "gzip", Err: "panic: <nil> & \"quoted\" \u2028 \t ✓"},
		{JobID: "gzip/w8", Index: 2, Benchmark: "gzip", Err: "context canceled", Skipped: true},
	}
	results[0].Stats.RetiredGood = 15000
	results[0].Stats.BucketCorrect[3] = 17
	data, err := json.Marshal(cachedPayload{Results: results, Summary: campaign.Summarize(results)})
	if err != nil {
		t.Fatal(err)
	}
	s.cache.Put(keyOf(t, failedSpec), data)
	code, failedBody := postRaw(t, ts, failedSpec)
	var failed JobStatus
	if err := json.Unmarshal(failedBody, &failed); code != http.StatusOK || err != nil || failed.Cache != "hit" {
		t.Fatalf("stored failed grid POST = %d %s (%v), want a hit", code, failedBody, err)
	}
	checkHitRendering(t, s, ts, failedSpec, failed.ID, failedBody)
	body := scrape(t, ts.URL)
	for _, want := range []string{
		`paco_job_admit_duration_seconds_count{cache="hit"} 2`,
		`paco_job_admit_duration_seconds_count{cache="miss"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("want %s:\n%s", want, grepMetrics(body, "paco_job_admit_duration_seconds_count"))
		}
	}

	// Restart on the same directory: the persisted entry answers the
	// same bytes (only the job's identity and timestamps are new).
	s2, ts2 := testServer(t, Config{CacheDir: dir})
	code, restartBody := postRaw(t, ts2, gatedSpec)
	var restarted JobStatus
	if err := json.Unmarshal(restartBody, &restarted); code != http.StatusOK || err != nil || restarted.Cache != "hit" {
		t.Fatalf("POST after restart = %d %s (%v), want a hit", code, restartBody, err)
	}
	checkHitRendering(t, s2, ts2, gatedSpec, restarted.ID, restartBody)
	tail := func(b []byte) []byte { return b[bytes.Index(b, []byte(`"summary"`)):] }
	if !bytes.Equal(tail(restartBody), tail(hitBody)) {
		t.Error("summary and results after restart differ from before it")
	}
	if got := s2.SimulationsRun(); got != 0 {
		t.Errorf("restarted server simulated %d jobs, want 0", got)
	}
}

// TestUndecodableCacheEntryIsAMiss: a persisted entry that does not
// parse is not a hit. The POST is a 202 miss counted as one, the job
// simulates once, and its result rewrites the damaged entry.
func TestUndecodableCacheEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, ts := testServer(t, Config{CacheDir: dir})
	st, _ := postJob(t, ts, tinySpec)
	waitDone(t, ts, st.ID)
	path := filepath.Join(dir, st.Key)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	for _, damaged := range [][]byte{
		good[:len(good)/2],                    // truncated
		[]byte(`{"results":{},"summary":{}}`), // valid JSON, not a result array
	} {
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		s, ts := testServer(t, Config{CacheDir: dir})
		st, code := postJob(t, ts, tinySpec)
		if code != http.StatusAccepted || st.Cache != "miss" {
			t.Fatalf("POST over a damaged entry = %d %q, want 202 miss", code, st.Cache)
		}
		waitDone(t, ts, st.ID)
		if got := s.SimulationsRun(); got != 1 {
			t.Errorf("simulations = %d, want 1", got)
		}
		if cs := s.CacheStats(); cs.Hits != 0 || cs.Misses != 1 {
			t.Errorf("cache counters = %+v, want 0 hits and 1 miss", cs)
		}
		body := scrape(t, ts.URL)
		if !strings.Contains(body, `paco_cache_lookups_total{kind="job",outcome="miss"} 1`) ||
			strings.Contains(body, `outcome="hit"`) {
			t.Errorf("lookup outcomes:\n%s", grepMetrics(body, "paco_cache_lookups_total"))
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, good) {
			t.Errorf("damaged entry not rewritten (%v)", err)
		}
		s.Close()
	}
}

// sweepPayload stores a synthetic sweep-shaped result set of n cells
// under the content address of an n-cell grid and returns that grid.
func sweepPayload(t testing.TB, s *Server, n int) (campaign.Grid, string) {
	t.Helper()
	g := campaign.Grid{Benchmarks: []string{"gzip"}, Instructions: 12000, Warmup: 4000}
	for i := 0; i < n; i++ {
		g.Refresh = append(g.Refresh, uint64(10000+1000*i))
	}
	g, err := g.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	results := make([]campaign.Result, n)
	for i := range results {
		r := &results[i]
		r.JobID, r.Index, r.Benchmark = fmt.Sprintf("gzip/r%d", i), i, "gzip"
		r.Seed, r.Cycles, r.IPC = 12345, uint64(9000+i), 1.25+float64(i)/7
		r.Stats.RetiredGood, r.Stats.FetchedGood, r.Stats.FetchedBad = 12000, 15000+uint64(i), 3000
		for b := range r.Stats.BucketCorrect {
			r.Stats.BucketCorrect[b] = uint64(100 * b)
			r.Stats.BucketMispred[b] = uint64(b + i)
		}
		r.SetExtra("rms_error", 0.01*float64(i+1))
		r.SetExtra("probe_instances", float64(40+i))
	}
	key, err := specKey(g)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(cachedPayload{Spec: g, Results: results, Summary: campaign.Summarize(results)})
	if err != nil {
		t.Fatal(err)
	}
	s.cache.Put(key, data)
	return g, key
}

// discardWriter is a ResponseWriter that keeps only the status code, so
// measuring a response does not measure a recorder's buffer growth.
type discardWriter struct {
	h    http.Header
	code int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }

// TestHitAllocsIndependentOfCells pins that answering a hit does not
// decode its results: from content address to response written, a
// 64-cell hit allocates no more than an 8-cell one (decoding would
// cost several allocations per cell).
func TestHitAllocsIndependentOfCells(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under -race")
	}
	allocs := func(cells int) float64 {
		s, err := New(Config{MaxJobs: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		grid, key := sweepPayload(t, s, cells)
		w := &discardWriter{h: http.Header{}}
		return testing.AllocsPerRun(200, func() {
			j, outcome, err := s.submit(grid, key, cells, "alloc-trace")
			if err != nil || outcome != "hit" {
				t.Fatalf("submit = %q, %v; want a hit", outcome, err)
			}
			writeAdmission(w, j, outcome)
		})
	}
	small, large := allocs(8), allocs(64)
	t.Logf("allocations per hit: %.0f at 8 cells, %.0f at 64", small, large)
	if large > small {
		t.Fatalf("a 64-cell hit allocates %.0f times, an 8-cell hit %.0f: hit cost grows with the results", large, small)
	}
}

// BenchmarkSubmitHit measures POST /v1/jobs answered from the cache for
// an 8-cell sweep-shaped grid, through the full handler.
func BenchmarkSubmitHit(b *testing.B) {
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	grid, _ := sweepPayload(b, s, 8)
	spec, err := json.Marshal(grid)
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	w := &discardWriter{h: http.Header{}}
	b.ReportAllocs()
	for b.Loop() {
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(spec)))
	}
	if w.code != http.StatusOK {
		b.Fatalf("POST answered %d, want a 200 hit", w.code)
	}
}

// TestSubmitsAcrossCompletion: identical submissions racing the one
// simulation they share — before, during and after it completes — never
// simulate it again, though each reads the cache before taking the
// server lock; and concurrent reads of the hit jobs decode their stored
// results safely. Meaningful under -race.
func TestSubmitsAcrossCompletion(t *testing.T) {
	s, ts := testServer(t, Config{})
	fetch := func(method, path, body string) (int, []byte, error) {
		req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		return doRaw(req)
	}
	const clients = 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for hits := 0; hits < 3; {
				code, body, err := fetch(http.MethodPost, "/v1/jobs", tinySpec)
				var st JobStatus
				if err == nil {
					err = json.Unmarshal(body, &st)
				}
				if err != nil || code >= 400 {
					t.Errorf("POST = %d %s (%v)", code, body, err)
					return
				}
				switch st.Cache {
				case "miss", "inflight":
					time.Sleep(time.Millisecond) // poll until the simulation lands
				case "hit":
					hits++
					for _, path := range []string{"/v1/jobs/" + st.ID, "/v1/jobs/" + st.ID + "/results"} {
						if code, _, err := fetch(http.MethodGet, path, ""); err != nil || code != http.StatusOK {
							t.Errorf("GET %s = %d (%v)", path, code, err)
						}
					}
				default:
					t.Errorf("cache verdict %q", st.Cache)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := s.SimulationsRun(); got != 1 {
		t.Fatalf("simulations = %d, want 1", got)
	}
}

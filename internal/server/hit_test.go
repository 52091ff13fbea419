package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
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

// storedResults decodes the results of the cache entry behind a spec.
func storedResults(t *testing.T, s *Server, spec string) []campaign.Result {
	t.Helper()
	data, ok := s.cache.Lookup(keyOf(t, spec))
	if !ok {
		t.Fatalf("no cache entry for %s", spec)
	}
	hit := parseStored(data)
	if hit == nil {
		t.Fatalf("cache entry for %s is not a job entry", spec)
	}
	var results []campaign.Result
	if err := json.Unmarshal(hit.results, &results); err != nil {
		t.Fatal(err)
	}
	return results
}

// putJobEntry stores results under the content address of spec, as a
// completed job would.
func putJobEntry(t testing.TB, s *Server, grid campaign.Grid, results []campaign.Result) string {
	t.Helper()
	key, err := specKey(grid)
	if err != nil {
		t.Fatal(err)
	}
	data, err := jobEntry(grid, results, campaign.Summarize(results))
	if err != nil {
		t.Fatal(err)
	}
	s.cache.Put(key, data)
	return key
}

// cachedPayload is a job's cache entry as builds before response-form
// entries wrote it: compact JSON of spec, results and summary.
type cachedPayload struct {
	Spec    campaign.Grid     `json:"spec"`
	Results []campaign.Result `json:"results"`
	Summary campaign.Summary  `json:"summary"`
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
	results := storedResults(t, s, spec)
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
	var hit JobStatus
	if err := json.Unmarshal(hitBody, &hit); code != http.StatusOK || err != nil || hit.Cache != "hit" {
		t.Fatalf("re-POST = %d %s (%v), want a hit", code, hitBody, err)
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
	putJobEntry(t, s, mustGrid(t, failedSpec), results)
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

// TestUndecodableCacheEntryIsAMiss: a persisted entry that fails its
// frame check — damaged, or written by an older build — is not a hit.
// The server drops the file at load; the POST is a 202 miss counted as
// one, the job simulates once, and its result writes the entry afresh.
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

	// The same job as the parent format stored it: compact JSON, no frame.
	legacy, err := json.Marshal(cachedPayload{
		Spec:    mustGrid(t, tinySpec),
		Results: storedResults(t, s, tinySpec),
		Summary: *jobByID(t, s, st.ID).status(false).Summary,
	})
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(good)
	flipped[frameHeader+(len(good)-frameHeader)/2] ^= 0x10
	for _, damaged := range [][]byte{
		good[:len(good)/2],                    // truncated
		[]byte(`{"results":{},"summary":{}}`), // valid JSON, not a frame
		legacy,                                // an older build's entry
		versionTwoFile(t, good[frameHeader:]), // a whole frame of the indented format
		flipped,                               // one payload byte flipped
		append(bytes.Clone(good), '\n'),       // length disagrees with the file
	} {
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		s, ts := testServer(t, Config{CacheDir: dir})
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("damaged entry still on disk after load (%v)", err)
		}
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

// versionTwoFile is the persisted file of the job entry payload as
// builds with version-2 frames wrote it: the same header, the results
// and spec sections indented one level deep as json.MarshalIndent
// writes them, in an undamaged frame whose version byte is 2.
func versionTwoFile(t *testing.T, payload []byte) []byte {
	t.Helper()
	hit := parseStored(payload)
	if hit == nil {
		t.Fatal("payload is not a job entry")
	}
	var results, spec bytes.Buffer
	if err := json.Indent(&results, hit.results, "  ", "  "); err != nil {
		t.Fatal(err)
	}
	if err := json.Indent(&spec, hit.spec, "  ", "  "); err != nil {
		t.Fatal(err)
	}
	e := binary.LittleEndian.AppendUint64(nil, uint64(results.Len()))
	e = append(e, payload[8:jobEntryHeader]...)
	e = append(append(e, results.Bytes()...), spec.Bytes()...)
	f := append([]byte("paco-cache\x00\x02"), binary.LittleEndian.AppendUint64(nil, uint64(len(e)))...)
	f = binary.LittleEndian.AppendUint32(f, checksum(e))
	return append(f, e...)
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
	return g, putJobEntry(t, s, g, syntheticResults(n))
}

// syntheticResults is a sweep-shaped result set of n completed cells,
// each with gating extras.
func syntheticResults(n int) []campaign.Result {
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
	return results
}

// discardWriter is a ResponseWriter that keeps only the status code and
// the body's size, so measuring a response does not measure a
// recorder's buffer growth.
type discardWriter struct {
	h    http.Header
	code int
	size int
}

func (d *discardWriter) Header() http.Header  { return d.h }
func (d *discardWriter) WriteHeader(code int) { d.code = code }
func (d *discardWriter) Write(p []byte) (int, error) {
	d.size += len(p)
	return len(p), nil
}

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
	if small > 80 {
		t.Fatalf("an 8-cell hit allocates %.0f times, want at most 80", small)
	}
}

// TestJobEntryRoundTrip: a job entry gives back the summary it was
// written with, field for field, and results that decode to the ones
// written; parseStored refuses an entry whose lengths do not fit it.
func TestJobEntryRoundTrip(t *testing.T) {
	if n := reflect.TypeOf(campaign.Summary{}).NumField(); n != summaryWords {
		t.Fatalf("campaign.Summary has %d fields, job entries store %d", n, summaryWords)
	}
	results := []campaign.Result{{JobID: "gzip/w4", Benchmark: "gzip", Cycles: 7, IPC: 0.75,
		Extra: map[string]float64{"rms_error": 0.5}}}
	want := campaign.Summary{Jobs: 1, Completed: 2, Failed: 3, Skipped: 4, Cycles: 1 << 40, Retired: 6, MeanIPC: 1.0 / 3}
	e, err := jobEntry(mustGrid(t, tinySpec), results, want)
	if err != nil {
		t.Fatal(err)
	}
	hit := parseStored(e)
	if hit == nil || hit.summary != want {
		t.Fatalf("parseStored = %+v, want summary %+v", hit, want)
	}
	var got []campaign.Result
	if err := json.Unmarshal(hit.results, &got); err != nil || !reflect.DeepEqual(got, results) {
		t.Fatalf("stored results decode to %+v (%v), want %+v", got, err, results)
	}
	if spec := e[jobEntryHeader+len(hit.results):]; !json.Valid(spec) {
		t.Errorf("entry's spec section is not JSON: %q", spec)
	}
	withLength := func(n int) []byte {
		b := bytes.Clone(e)
		binary.LittleEndian.PutUint64(b, uint64(n))
		return b
	}
	for name, bad := range map[string][]byte{
		"empty":           nil,
		"short header":    e[:jobEntryHeader-1],
		"no results":      e[:jobEntryHeader],
		"no spec":         e[:jobEntryHeader+len(hit.results)],
		"zero length":     withLength(0),
		"length past end": withLength(len(e)),
	} {
		if parseStored(bad) != nil {
			t.Errorf("parseStored accepted an entry with %s", name)
		}
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

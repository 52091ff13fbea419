package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"paco/internal/campaign"
	"paco/internal/scenario"
)

// hitGrids are POST bodies shaped like perfbench sweep's resubmissions:
// an 8-cell stream grid (two benchmarks × two refresh periods × two
// gates) and a grid of four fuzzed scenarios, whose normalized spec
// spells out about 1.3 KB of scenario documents.
var hitGrids = []struct {
	name string
	grid campaign.Grid
}{
	{"stream", campaign.Grid{Benchmarks: []string{"gzip", "twolf"}, Refresh: []uint64{10000, 20000},
		ProbGates: []float64{0.1, 0.3}, Instructions: 20000, Warmup: 5000, Seed: 12345}},
	{"fuzz", campaign.Grid{Fuzz: &scenario.FuzzSpec{Seed: 3, Count: 4}, Refresh: []uint64{50000},
		Instructions: 20000, Warmup: 5000, Seed: 6789}},
}

// storeHit stores a synthetic completed job for grid in s's cache and
// returns the body a client POSTs for it: the grid as written, not
// normalized.
func storeHit(tb testing.TB, s *Server, grid campaign.Grid) []byte {
	tb.Helper()
	body, err := json.Marshal(grid)
	if err != nil {
		tb.Fatal(err)
	}
	n, err := grid.Normalized()
	if err != nil {
		tb.Fatal(err)
	}
	putJobEntry(tb, s, n, syntheticResults(n.Size()))
	return body
}

// hitPoster returns a function that POSTs body through s's whole
// handler, fails unless it answers a 200 hit, and returns the size of
// the response body.
func hitPoster(tb testing.TB, s *Server, body []byte) func() int {
	h := s.Handler()
	w := &discardWriter{h: http.Header{}}
	return func() int {
		w.code, w.size = 0, 0
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		if w.code != http.StatusOK {
			tb.Fatalf("POST answered %d, want a 200 hit", w.code)
		}
		return w.size
	}
}

// BenchmarkSubmitHitHandler measures POST /v1/jobs answered from the
// cache through the whole handler, request side included, for a body
// submitted before: the steady state of a client resubmitting grids.
// B/resp is the size of the hit body every resubmission reads.
func BenchmarkSubmitHitHandler(b *testing.B) {
	for _, hg := range hitGrids {
		b.Run(hg.name, func(b *testing.B) {
			s, err := New(Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			post := hitPoster(b, s, storeHit(b, s, hg.grid))
			size := post() // the first submission is parsed, and remembered
			b.ReportAllocs()
			for b.Loop() {
				post()
			}
			b.ReportMetric(float64(size), "B/resp")
		})
	}
}

// TestSubmitHitHandlerAllocs pins the whole handler's allocations for a
// resubmitted hit, request construction included: at most 40 for the
// 8-cell stream grid, and no more for the fuzz grid, whose spec is
// larger but is neither decoded nor encoded on a hit.
func TestSubmitHitHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under -race")
	}
	allocs := map[string]float64{}
	for _, hg := range hitGrids {
		s, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		post := hitPoster(t, s, storeHit(t, s, hg.grid))
		post()
		allocs[hg.name] = testing.AllocsPerRun(200, func() { post() })
		s.Close()
	}
	t.Logf("allocations per resubmitted hit: %v", allocs)
	if allocs["stream"] > 40 {
		t.Errorf("a stream-grid hit allocates %.0f times, want at most 40", allocs["stream"])
	}
	if allocs["fuzz"] > allocs["stream"] {
		t.Errorf("a fuzz-grid hit allocates %.0f times, a stream-grid hit %.0f: hit cost grows with the spec",
			allocs["fuzz"], allocs["stream"])
	}
}

// memoLen is how many bodies s's admission memo remembers.
func memoLen(s *Server) int {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	return len(s.memo.entries)
}

// requestLookups returns the request-kind lines of the lookup family.
func requestLookups(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	return grepMetrics(scrape(t, ts.URL), `paco_cache_lookups_total{kind="request"`)
}

// TestMemoRespelledBodyIsAHit: a body spelled differently from every
// body seen before is parsed in full and still answered as a hit, with
// the same bytes as the memoized answer to the same spec; only the
// resubmission of identical bytes is a request hit.
func TestMemoRespelledBodyIsAHit(t *testing.T) {
	s, ts := testServer(t, Config{})
	putJobEntry(t, s, mustGrid(t, tinySpec), syntheticResults(1))
	const respelled = ` { "warmup": 4000, "instructions": 12000, "benchmarks": ["gzip"], "refresh": [200000] } `
	var bodies [][]byte
	for _, spec := range []string{tinySpec, respelled, respelled, tinySpec} {
		code, body := postRaw(t, ts, spec)
		var st JobStatus
		if err := json.Unmarshal(body, &st); code != http.StatusOK || err != nil || st.Cache != "hit" {
			t.Fatalf("POST %s = %d %s (%v), want a hit", spec, code, body, err)
		}
		bodies = append(bodies, body)
	}
	// Only the job id and the timestamps differ between the answers.
	between := func(b []byte, from, to string) []byte {
		i := bytes.Index(b, []byte(from))
		return b[i : i+bytes.Index(b[i:], []byte(to))]
	}
	for i, b := range bodies[1:] {
		if !bytes.Equal(between(b, `"key"`, `"created"`), between(bodies[0], `"key"`, `"created"`)) ||
			!bytes.Equal(between(b, `"summary"`, "}\n"), between(bodies[0], `"summary"`, "}\n")) {
			t.Errorf("answer %d differs from the first:\n got %s\nwant %s", i+1, b, bodies[0])
		}
	}
	if got := memoLen(s); got != 2 {
		t.Errorf("memo holds %d bodies, want 2", got)
	}
	got := requestLookups(t, ts)
	for _, want := range []string{
		`paco_cache_lookups_total{kind="request",outcome="hit"} 2`,
		`paco_cache_lookups_total{kind="request",outcome="miss"} 2`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("want %s in:\n%s", want, got)
		}
	}
	if cs := s.CacheStats(); cs.Hits != 4 || cs.Misses != 0 {
		t.Errorf("cache counters = %+v, want 4 hits and no miss", cs)
	}
}

// TestMemoEvictedKeyIsAMiss: a remembered body whose result the cache
// has since evicted is an ordinary miss — it simulates, exactly once,
// and its resubmission after that is a request hit again.
func TestMemoEvictedKeyIsAMiss(t *testing.T) {
	const budget = 1 << 20
	s, ts := testServer(t, Config{CacheBytes: budget})
	st, _ := postJob(t, ts, tinySpec)
	waitDone(t, ts, st.ID)
	if hit, _ := postJob(t, ts, tinySpec); hit.Cache != "hit" {
		t.Fatalf("resubmission = %q, want a hit", hit.Cache)
	}
	// An entry the size of the whole budget evicts every other one.
	s.cache.Put(strings.Repeat("f", 64), make([]byte, budget))
	if _, ok := s.cache.Lookup(st.Key); ok {
		t.Fatal("the job's entry survived the eviction")
	}
	st, code := postJob(t, ts, tinySpec)
	if code != http.StatusAccepted || st.Cache != "miss" {
		t.Fatalf("POST after eviction = %d %q, want 202 miss", code, st.Cache)
	}
	again, _ := postJob(t, ts, tinySpec)
	if again.Cache != "inflight" && again.Cache != "hit" {
		t.Fatalf("POST during the re-simulation = %q, want inflight or hit", again.Cache)
	}
	// A re-simulation that finished before that POST made it a request
	// hit too.
	wantHits := 2
	if again.Cache == "hit" {
		wantHits = 3
	}
	waitDone(t, ts, st.ID)
	if hit, _ := postJob(t, ts, tinySpec); hit.Cache != "hit" {
		t.Fatalf("POST after the re-simulation = %q, want a hit", hit.Cache)
	}
	if got := s.SimulationsRun(); got != 2 {
		t.Errorf("simulations = %d, want 2 (the first run and one after the eviction)", got)
	}
	if got := requestLookups(t, ts); !strings.Contains(got, fmt.Sprintf(`{kind="request",outcome="hit"} %d`, wantHits)) {
		t.Errorf("want %d request hits (before the eviction, after the re-simulation, and during it if it had finished):\n%s", wantHits, got)
	}
}

// TestMemoRemembersNoError: a body that answers an error answers the
// same error every time, and is never remembered.
func TestMemoRemembersNoError(t *testing.T) {
	s, ts := testServer(t, Config{MaxCells: 2})
	for _, spec := range []string{
		`{"benchmarks":["nope"]}`,                       // fails normalization
		`{"benchmarks":["gzip"],"bogus":1}`,             // unknown field
		tinySpec + ` {"benchmarks":["twolf"]}`,          // trailing data
		`{"benchmarks":["gzip"],"widths":[2,4,8]}`,      // past MaxCells
		`{"benchmarks":["gzip"],"instructions":"many"}`, // wrong type
	} {
		code1, body1 := postRaw(t, ts, spec)
		code2, body2 := postRaw(t, ts, spec)
		if code1 != http.StatusBadRequest || code2 != code1 || !bytes.Equal(body1, body2) {
			t.Errorf("POST %s twice = %d %s, then %d %s; want the same 400", spec, code1, body1, code2, body2)
		}
	}
	if got := memoLen(s); got != 0 {
		t.Errorf("memo holds %d bodies after only errors, want 0", got)
	}
	if got := requestLookups(t, ts); strings.Contains(got, `outcome="hit"`) {
		t.Errorf("an erroneous body counted as a request hit:\n%s", got)
	}
}

// TestMemoBoundedByMaxJobs: the memo never remembers more bodies than
// MaxJobs; past the bound it forgets the one remembered longest ago,
// whose next submission is parsed again and is still a hit.
func TestMemoBoundedByMaxJobs(t *testing.T) {
	const maxJobs = 3
	s, ts := testServer(t, Config{MaxJobs: maxJobs})
	var specs []string
	for i := 0; i < 2*maxJobs; i++ {
		g := campaign.Grid{Benchmarks: []string{"gzip"}, Instructions: uint64(12000 + i), Warmup: 4000}
		spec := string(storeHit(t, s, g))
		specs = append(specs, spec)
		if code, _ := postRaw(t, ts, spec); code != http.StatusOK {
			t.Fatalf("POST %s = %d, want a hit", spec, code)
		}
		if got := memoLen(s); got > maxJobs {
			t.Fatalf("memo holds %d bodies, MaxJobs is %d", got, maxJobs)
		}
	}
	if got := memoLen(s); got != maxJobs {
		t.Errorf("memo holds %d bodies, want %d", got, maxJobs)
	}
	before := requestLookups(t, ts)
	if !strings.Contains(before, `{kind="request",outcome="miss"} 6`) || strings.Contains(before, `outcome="hit"`) {
		t.Fatalf("six first submissions should be six request misses:\n%s", before)
	}
	postRaw(t, ts, specs[len(specs)-1]) // remembered
	postRaw(t, ts, specs[0])            // forgotten
	after := requestLookups(t, ts)
	for _, want := range []string{`{kind="request",outcome="hit"} 1`, `{kind="request",outcome="miss"} 7`} {
		if !strings.Contains(after, want) {
			t.Errorf("want %s in:\n%s", want, after)
		}
	}
	if got := memoLen(s); got != maxJobs {
		t.Errorf("memo holds %d bodies, want %d", got, maxJobs)
	}
}

// TestMemoIgnoresTraceHeader: the trace header is not part of what the
// memo remembers — the same body under any trace, or none, is one memo
// entry — yet every answer echoes its own request's trace.
func TestMemoIgnoresTraceHeader(t *testing.T) {
	s, ts := testServer(t, Config{})
	body := storeHit(t, s, hitGrids[0].grid)
	for _, trace := range []string{"first-trace", "", "second-trace", "first-trace"} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if trace != "" {
			req.Header.Set("X-Paco-Trace", trace)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || st.Cache != "hit" {
			t.Fatalf("POST with trace %q = %d %q (%v), want a hit", trace, resp.StatusCode, st.Cache, err)
		}
		echoed := resp.Header.Get("X-Paco-Trace")
		if st.Trace != echoed || trace != "" && echoed != trace || echoed == "" {
			t.Errorf("trace %q answered with header %q and body %q", trace, echoed, st.Trace)
		}
	}
	if got := memoLen(s); got != 1 {
		t.Errorf("memo holds %d bodies, want 1", got)
	}
	got := requestLookups(t, ts)
	for _, want := range []string{`{kind="request",outcome="hit"} 3`, `{kind="request",outcome="miss"} 1`} {
		if !strings.Contains(got, want) {
			t.Errorf("want %s in:\n%s", want, got)
		}
	}
}

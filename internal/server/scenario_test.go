package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"paco/internal/campaign"
	"paco/internal/scenario"
)

// TestScenarioJobCacheHit: scenario jobs flow through the existing
// content-addressed path unchanged — the second identical scenario POST
// is a cache hit, and the family-name spelling on the benchmark axis
// hashes to the same key as the explicit scenario spelling.
func TestScenarioJobCacheHit(t *testing.T) {
	s, ts := testServer(t, Config{})

	spec := `{"scenarios":[{"family":"loopy"}],"instructions":12000,"warmup":4000}`
	first, code := postJob(t, ts, spec)
	if code != http.StatusAccepted || first.Cache != "miss" {
		t.Fatalf("first POST = %+v (code %d), want queued miss", first, code)
	}
	done := waitDone(t, ts, first.ID)
	if len(done.Results) != 1 || done.Results[0].Benchmark != "loopy" {
		t.Fatalf("scenario job results: %+v", done.Results)
	}
	if got := s.SimulationsRun(); got != 1 {
		t.Fatalf("simulations = %d, want 1", got)
	}

	// The same workload, three other spellings: the family name on the
	// benchmark axis, shuffled fields, and every scenario default
	// spelled out.
	norm, err := scenario.Scenario{Family: "loopy"}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	scJSON, _ := json.Marshal(norm)
	equivalents := []string{
		`{"warmup":4000,"benchmarks":["loopy"],"instructions":12000}`,
		fmt.Sprintf(`{"warmup":4000,"instructions":12000,"scenarios":[%s]}`, scJSON),
	}
	for i, eq := range equivalents {
		st, code := postJob(t, ts, eq)
		if code != http.StatusOK || st.Cache != "hit" {
			t.Fatalf("equivalent %d: %+v (code %d), want done hit", i, st, code)
		}
		if st.Key != first.Key {
			t.Fatalf("equivalent %d keyed %s, want %s", i, st.Key, first.Key)
		}
	}
	if got := s.SimulationsRun(); got != 1 {
		t.Fatalf("simulations after hits = %d, want still 1", got)
	}
}

// TestOversizedScenarioRejected: a scenario whose override asks for a
// program past workload.Spec.Validate's size bounds is refused at
// admission with a 400 naming the field. No job is minted and nothing is
// built or simulated.
func TestOversizedScenarioRejected(t *testing.T) {
	s, ts := testServer(t, Config{})
	body := `{"scenarios":[{"family":"loopy","ops":[{"override":{"blocks_per_phase":1048576}}]}],"instructions":12000,"warmup":4000}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(msg, []byte("BlocksPerPhase")) {
		t.Fatalf("POST oversized loopy = %d %q, want 400 naming BlocksPerPhase", resp.StatusCode, msg)
	}
	s.mu.Lock()
	jobs := len(s.jobs)
	s.mu.Unlock()
	if jobs != 0 || s.SimulationsRun() != 0 {
		t.Fatalf("rejected POST left %d jobs and %d simulations, want none", jobs, s.SimulationsRun())
	}
}

// TestScenarioSpecKeyGolden pins the canonicalization contract with
// golden keys: equivalent scenario grids (field order, number spelling,
// spelled-out defaults, fuzz expansion) hash to one key, and that key is
// stable across releases — a change here invalidates every persisted
// cache, so it must be deliberate.
func TestScenarioSpecKeyGolden(t *testing.T) {
	key := func(t *testing.T, doc string) string {
		t.Helper()
		var g campaign.Grid
		if err := json.Unmarshal([]byte(doc), &g); err != nil {
			t.Fatal(err)
		}
		n, err := g.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		k, err := specKey(n)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}

	base := key(t, `{"scenarios":[{"family":"adversarial-mdc"}],"instructions":20000,"warmup":5000}`)
	equivalents := []string{
		// Family name on the benchmark axis.
		`{"benchmarks":["adversarial-mdc"],"instructions":20000,"warmup":5000}`,
		// Shuffled fields.
		`{"warmup":5000,"instructions":20000,"scenarios":[{"family":"adversarial-mdc"}]}`,
		// Scenario defaults spelled out.
		`{"instructions":20000,"warmup":5000,"scenarios":[{"version":1,"name":"adversarial-mdc",
		  "family":"adversarial-mdc","params":{"eps_hi":0.3,"eps_lo":0.02,"split":0.3}}]}`,
	}
	for i, doc := range equivalents {
		if k := key(t, doc); k != base {
			t.Errorf("equivalent %d keyed %s, want %s", i, k, base)
		}
	}
	if k := key(t, `{"scenarios":[{"family":"loopy"}],"instructions":20000,"warmup":5000}`); k == base {
		t.Error("different scenarios share a key")
	}

	// A fuzz spec and its expansion are content-equal.
	fz := key(t, `{"fuzz":{"seed":9,"count":2},"instructions":20000,"warmup":5000}`)
	scs, err := scenario.FuzzSpec{Seed: 9, Count: 2}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	expanded, _ := json.Marshal(scs)
	if k := key(t, fmt.Sprintf(`{"instructions":20000,"warmup":5000,"scenarios":%s}`, expanded)); k != fz {
		t.Errorf("fuzz expansion keyed %s, want %s", k, fz)
	}
}

// TestScenarioCanonicalJSONGolden pins the canonical bytes of a
// normalized scenario document — the input to both the cache key and the
// trace provenance hash.
func TestScenarioCanonicalJSONGolden(t *testing.T) {
	norm, err := scenario.Scenario{Family: "loopy"}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(norm)
	canon, err := CanonicalJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{"family":"loopy","name":"loopy","params":{"loop_weight":0.35,"trip_max":240,"trip_min":100},"seed":7984245161204320180,"version":1}`
	if string(canon) != golden {
		t.Errorf("canonical scenario JSON drifted:\n got %s\nwant %s", canon, golden)
	}
	// An equivalently-spelled document canonicalizes to the same bytes.
	alt := []byte(`{"params":{"trip_min":100,"loop_weight":0.35,"trip_max":2.4e2},
	                "version":1,"seed":7984245161204320180,"name":"loopy","family":"loopy"}`)
	canon2, err := CanonicalJSON(alt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canon, canon2) {
		t.Errorf("equivalent documents canonicalize apart:\n%s\n%s", canon, canon2)
	}
}

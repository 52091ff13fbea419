package server

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"paco/internal/campaign"
	"paco/internal/experiments"
)

func TestCanonicalJSONOrderInsensitive(t *testing.T) {
	a := []byte(`{"benchmarks":["gzip","twolf"],"instructions":600000,"warmup":200000}`)
	b := []byte(` { "warmup" : 200000 ,
	                "instructions" : 600000,
	                "benchmarks" : [ "gzip" , "twolf" ] } `)
	ca, err := CanonicalJSON(a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := CanonicalJSON(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca, cb) {
		t.Fatalf("canonical forms differ:\n%s\n%s", ca, cb)
	}
	// List order is semantic (job order) and must be preserved.
	c, err := CanonicalJSON([]byte(`{"benchmarks":["twolf","gzip"],"instructions":600000,"warmup":200000}`))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ca, c) {
		t.Fatal("canonicalization erased list order")
	}
}

func TestCanonicalJSONNumbers(t *testing.T) {
	cases := [][2]string{
		{`{"n":1e6}`, `{"n":1000000}`},
		{`{"n":1000000.0}`, `{"n":1000000}`},
		{`{"n":0.5}`, `{"n":5e-1}`},
		{`{"n":1e18}`, `{"n":1000000000000000000}`},                  // integral beyond 2^53, within int64
		{`{"n":18446744073709551615}`, `{"n":18446744073709551615}`}, // uint64 max survives exactly
	}
	for _, tc := range cases {
		a, err := CanonicalJSON([]byte(tc[0]))
		if err != nil {
			t.Fatalf("%s: %v", tc[0], err)
		}
		b, err := CanonicalJSON([]byte(tc[1]))
		if err != nil {
			t.Fatalf("%s: %v", tc[1], err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("CanonicalJSON(%s) = %s, CanonicalJSON(%s) = %s; want equal", tc[0], a, tc[1], b)
		}
	}
	if _, err := CanonicalJSON([]byte(`{"a":1} trailing`)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	if _, err := CanonicalJSON([]byte(`{`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestKeyDomainSeparation(t *testing.T) {
	if Key([]byte("ab"), []byte("c")) == Key([]byte("a"), []byte("bc")) {
		t.Fatal("part boundaries do not affect the key")
	}
	if len(Key([]byte("x"))) != 64 {
		t.Fatalf("key length = %d, want 64 hex chars", len(Key([]byte("x"))))
	}
}

func TestCacheEvictionRespectsBudget(t *testing.T) {
	c, err := NewCache(100, "")
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("x"), 40)
	keys := make([]string, 4)
	for i := range keys {
		keys[i] = Key([]byte{byte(i)})
		c.Put(keys[i], data)
		if st := c.Stats(); st.Bytes > 100 {
			t.Fatalf("after put %d: %d bytes resident, budget 100", i, st.Bytes)
		}
	}
	// 4 x 40 bytes into a 100-byte budget: only the 2 most recent fit.
	st := c.Stats()
	if st.Entries != 2 || st.Bytes != 80 {
		t.Fatalf("stats = %+v, want 2 entries / 80 bytes", st)
	}
	if _, ok := c.Get(keys[0]); ok {
		t.Fatal("oldest entry not evicted")
	}
	if _, ok := c.Get(keys[3]); !ok {
		t.Fatal("newest entry missing")
	}
	// Touching an entry protects it from the next eviction.
	c.Get(keys[2])
	c.Put(Key([]byte{9}), data)
	if _, ok := c.Get(keys[2]); !ok {
		t.Fatal("recently used entry evicted before LRU victim")
	}
	// An entry larger than the whole budget is refused outright.
	c.Put(Key([]byte{10}), bytes.Repeat([]byte("y"), 101))
	if st := c.Stats(); st.Bytes > 100 {
		t.Fatalf("oversized entry stored: %+v", st)
	}
}

func TestCacheDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key([]byte("persist-me"))
	c.Put(key, []byte("result bytes"))
	if _, err := os.Stat(filepath.Join(dir, key)); err != nil {
		t.Fatalf("entry not persisted: %v", err)
	}
	// A foreign file in the directory is ignored on reload.
	os.WriteFile(filepath.Join(dir, "README"), []byte("not a key"), 0o644)
	// An entry with one payload byte flipped fails its checksum: it is
	// not loaded, and its file is removed.
	flippedKey := Key([]byte("flipped"))
	c.Put(flippedKey, []byte("other result bytes"))
	flippedPath := filepath.Join(dir, flippedKey)
	file, err := os.ReadFile(flippedPath)
	if err != nil {
		t.Fatal(err)
	}
	file[len(file)-1] ^= 1
	if err := os.WriteFile(flippedPath, file, 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := NewCache(1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(key)
	if !ok || string(got) != "result bytes" {
		t.Fatalf("reloaded Get = %q, %v", got, ok)
	}
	if got, ok := c2.Get(flippedKey); ok {
		t.Fatalf("entry with a flipped byte loaded as %q", got)
	}
	if _, err := os.Stat(flippedPath); !os.IsNotExist(err) {
		t.Fatalf("entry with a flipped byte still on disk: %v", err)
	}
	if st := c2.Stats(); st.Entries != 1 {
		t.Fatalf("reloaded entries = %d, want 1", st.Entries)
	}

	// Eviction removes the file too, so the directory cannot grow
	// without bound.
	small, err := NewCache(10, dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := small.Stats(); st.Entries != 0 {
		t.Fatalf("reload beyond budget kept %d entries", st.Entries)
	}
	if _, err := os.Stat(filepath.Join(dir, key)); !os.IsNotExist(err) {
		t.Fatalf("evicted entry still on disk: %v", err)
	}
}

func TestCacheStatsCounters(t *testing.T) {
	c, err := NewCache(1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	k := Key([]byte("k"))
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, []byte("v"))
	for i := 0; i < 3; i++ {
		if _, ok := c.Get(k); !ok {
			t.Fatal("miss after put")
		}
	}
	st := c.Stats()
	if st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 3/1", st.Hits, st.Misses)
	}
}

func TestSpecKeyMatchesAcrossSpellings(t *testing.T) {
	// specKey goes through Grid normalization + canonical JSON, so a spec
	// with defaults spelled out equals one with them omitted.
	g1 := mustGrid(t, `{"benchmarks":["gzip"],"instructions":600000}`)
	g2 := mustGrid(t, `{"instructions":600000,"benchmarks":["gzip"],"warmup":200000,"widths":[4]}`)
	k1, err := specKey(g1)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := specKey(g2)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("equivalent specs hash differently:\n%s\n%s", k1, k2)
	}
	g3 := mustGrid(t, `{"benchmarks":["gzip"],"instructions":700000}`)
	k3, err := specKey(g3)
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Fatal("different specs hash equal")
	}
}

func mustGrid(t testing.TB, raw string) campaign.Grid {
	t.Helper()
	var g campaign.Grid
	if err := json.Unmarshal([]byte(raw), &g); err != nil {
		t.Fatal(err)
	}
	n, err := g.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestContentAddressesGolden pins the content addresses of a fixed set
// of specs to the values they have always had: a change to the
// canonical form or the key derivation would orphan every stored
// result, in memory and in every -cache-dir.
func TestContentAddressesGolden(t *testing.T) {
	for _, tc := range []struct{ name, spec, key string }{
		{"default grid", `{}`,
			"e44dbd3cd968dbc70b8a6ac17e44753e9ed4b85caf87f12bca610882a31f83f0"},
		{"stream sweep", `{"benchmarks":["gzip","twolf"],"refresh":[10000,20000],"prob_gates":[0.1,0.3],"instructions":20000,"warmup":5000,"seed":1234567}`,
			"ecf705d909674334161182a3c202934ba59fc43c280555ed7bdb6d8769ab194a"},
		{"fuzz sweep", `{"fuzz":{"seed":3,"count":4},"refresh":[50000],"instructions":20000,"warmup":5000,"seed":7654321}`,
			"b7e0632090d65a887afe1fb9f1ca692245eb868d00de63bddbc300326fafc5a6"},
		{"family on the benchmark axis", `{"benchmarks":["loopy"]}`,
			"a599be96bcb0b365992db778ef99b5af83f93a75bd88594dba038dd67a6fa711"},
		{"gate 1e-7", `{"benchmarks":["gzip"],"prob_gates":[1e-7]}`,
			"edfddabf08d26403a3d960c9157b1d289a61b9a71a1bac43c71676e35c19bf34"},
		{"gate 0.1", `{"benchmarks":["gzip"],"prob_gates":[0.1]}`,
			"6cc2f5a3c570b070e2379e0368527442299c72ad80c65e526e56ba8aae92e990"},
		// A gate of 2 is outside (0,1), so the integral-float spelling
		// is pinned on a scenario parameter.
		{"parameter 2e0", `{"scenarios":[{"family":"server","params":{"phases":2e0}}]}`,
			"2f7f3a67f5277f60bae77434073551acf5af0a590c3bf958885648b15807c67b"},
	} {
		if got := keyOf(t, tc.spec); got != tc.key {
			t.Errorf("%s: content address %s, want %s", tc.name, got, tc.key)
		}
	}
	const quickFig2 = "fa1486c48cab41e6cbf74f00015a09b3de5f35bc558545c0051aa1be4eebf45d"
	if got, err := experimentKey("fig2", experiments.Quick()); err != nil || got != quickFig2 {
		t.Errorf("experiment fig2 at the quick config: content address %s (%v), want %s", got, err, quickFig2)
	}
}

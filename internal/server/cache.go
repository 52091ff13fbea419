package server

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
)

// Content addressing. Every simulation in this repository is
// deterministic given its spec (DESIGN.md), so a job's result is a pure
// function of its canonicalized spec: SHA-256 of the canonical bytes is
// the result's address, and two requests that describe the same work hash
// to the same address no matter how their JSON was spelled.

// Key computes the content address of the given spec parts: the SHA-256
// hex digest over the parts separated by NUL (so part boundaries are
// unambiguous).
func Key(parts ...[]byte) string {
	h := sha256.New()
	for i, p := range parts {
		if i > 0 {
			h.Write([]byte{0})
		}
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CanonicalJSON rewrites a JSON document into its canonical form: object
// keys sorted, insignificant whitespace removed, and numbers in a single
// normal form (integers in base 10 without exponent when exactly
// representable, shortest-round-trip floats otherwise). Two JSON
// documents that differ only in key order, whitespace, or number
// spelling canonicalize to identical bytes — the property the
// content-addressed cache's keys rest on.
func CanonicalJSON(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("server: canonicalizing spec: %w", err)
	}
	// Reject trailing garbage after the document.
	if dec.More() {
		return nil, fmt.Errorf("server: canonicalizing spec: trailing data after JSON document")
	}
	return json.Marshal(canonicalValue(v))
}

// canonicalValue normalizes numbers in a decoded JSON tree; maps need no
// work because encoding/json marshals map keys in sorted order.
func canonicalValue(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			x[k] = canonicalValue(e)
		}
		return x
	case []any:
		for i, e := range x {
			x[i] = canonicalValue(e)
		}
		return x
	case json.Number:
		return canonicalNumber(x)
	default:
		return v
	}
}

// canonicalNumber maps numerically equal JSON spellings ("1e6",
// "1000000", "1000000.0") to one representation.
func canonicalNumber(n json.Number) json.RawMessage {
	s := string(n)
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return json.RawMessage(strconv.FormatInt(i, 10))
	}
	if u, err := strconv.ParseUint(s, 10, 64); err == nil {
		return json.RawMessage(strconv.FormatUint(u, 10))
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		// Not parseable as a number we can normalize; keep the original
		// spelling (still deterministic for equal inputs).
		return json.RawMessage(s)
	}
	// Integral floats format as integers across the whole int64 range so
	// "1e18" and "1000000000000000000" agree; spellings equal only beyond
	// float64 precision still hash apart, which is the best any
	// float64-based normalization can do.
	if f == math.Trunc(f) && f >= -(1<<63) && f < 1<<63 {
		return json.RawMessage(strconv.FormatInt(int64(f), 10))
	}
	return json.RawMessage(strconv.FormatFloat(f, 'g', -1, 64))
}

// Cache is the content-addressed result store: key (SHA-256 of the
// canonical spec) to result bytes, bounded by a byte budget with LRU
// eviction, optionally persisted to a directory so a restarted server
// keeps its hits. All methods are safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	dir     string

	hits, misses uint64
}

type cacheEntry struct {
	key  string
	data []byte
}

// CacheStats is a point-in-time view of the cache counters.
type CacheStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
	Bytes   int64  `json:"bytes"`
	Budget  int64  `json:"budget"`
}

// NewCache builds a cache with the given byte budget (<= 0 selects 64
// MiB). When dir is nonempty the cache persists entries there — one file
// per key — and reloads them on construction, oldest first so the LRU
// order survives restarts; entries beyond the budget are evicted (and
// their files removed) during the reload.
func NewCache(budget int64, dir string) (*Cache, error) {
	if budget <= 0 {
		budget = 64 << 20
	}
	c := &Cache{
		budget:  budget,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
		dir:     dir,
	}
	if dir == "" {
		return c, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: cache dir: %w", err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("server: cache dir: %w", err)
	}
	type onDisk struct {
		key string
		mod int64
	}
	var files []onDisk
	for _, de := range names {
		if de.IsDir() || !validKey(de.Name()) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		files = append(files, onDisk{key: de.Name(), mod: info.ModTime().UnixNano()})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod < files[j].mod })
	for _, f := range files {
		path := filepath.Join(dir, f.key)
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		if int64(len(data)) > budget {
			// Refused entries must not linger on disk or the directory
			// grows without bound across budget changes.
			_ = os.Remove(path)
			continue
		}
		c.put(f.key, data, false) // already on disk; don't rewrite
	}
	return c, nil
}

// validKey reports whether name looks like a SHA-256 hex digest —
// anything else in the persistence directory is ignored.
func validKey(name string) bool {
	if len(name) != 64 {
		return false
	}
	_, err := hex.DecodeString(name)
	return err == nil
}

// Get returns the stored bytes for key and records a hit or miss. The
// returned slice is shared; callers must not modify it.
func (c *Cache) Get(key string) ([]byte, bool) {
	data, ok := c.Lookup(key)
	c.Count(ok)
	return data, ok
}

// Lookup is Get without the hit/miss accounting, for callers that must
// check the stored bytes before the lookup counts as a hit: they record
// their verdict with Count.
func (c *Cache) Lookup(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).data, true
}

// Count records one lookup outcome.
func (c *Cache) Count(hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if hit {
		c.hits++
	} else {
		c.misses++
	}
}

// Put stores data under key, evicting least-recently-used entries until
// the byte budget holds. An entry larger than the whole budget is not
// stored.
func (c *Cache) Put(key string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(key, data, true)
}

func (c *Cache) put(key string, data []byte, persist bool) {
	if int64(len(data)) > c.budget {
		return
	}
	if el, ok := c.entries[key]; ok {
		// Deterministic results mean equal keys carry equal bytes; just
		// refresh recency (and size, defensively).
		e := el.Value.(*cacheEntry)
		c.bytes += int64(len(data)) - int64(len(e.data))
		e.data = data
		c.lru.MoveToFront(el)
	} else {
		c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, data: data})
		c.bytes += int64(len(data))
	}
	if persist && c.dir != "" {
		// Best effort: a failed write only costs persistence, not
		// correctness.
		_ = os.WriteFile(filepath.Join(c.dir, key), data, 0o644)
	}
	for c.bytes > c.budget {
		oldest := c.lru.Back()
		if oldest == nil {
			break
		}
		e := oldest.Value.(*cacheEntry)
		c.lru.Remove(oldest)
		delete(c.entries, e.key)
		c.bytes -= int64(len(e.data))
		if c.dir != "" {
			_ = os.Remove(filepath.Join(c.dir, e.key))
		}
	}
}

// Stats returns the current counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:    c.hits,
		Misses:  c.misses,
		Entries: len(c.entries),
		Bytes:   c.bytes,
		Budget:  c.budget,
	}
}

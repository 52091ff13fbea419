// Package expiry is the one lazy TTL clock in the server layer: a
// Tracker remembers when each key was last touched and hands back the
// keys whose silence has exceeded the TTL. The federation's lease table
// and the session table's idle sweeper share it — one tested expiry
// semantics instead of two hand-rolled clock loops.
//
// The Tracker never spawns goroutines and never reads the wall clock:
// callers pass `now` in, which keeps expiry decisions deterministic
// under test (inject a fake clock) and lets callers choose their own
// cadence — the federation polls lazily from its lease/result paths, the
// session table from a periodic sweep.
package expiry

import (
	"sort"
	"sync"
	"time"
)

// Tracker tracks last-touch times by key against a fixed TTL.
// All methods are safe for concurrent use.
type Tracker struct {
	ttl time.Duration

	mu   sync.Mutex
	last map[string]time.Time
}

// New builds a tracker with the given TTL (must be positive).
func New(ttl time.Duration) *Tracker {
	if ttl <= 0 {
		panic("expiry: TTL must be positive")
	}
	return &Tracker{ttl: ttl, last: make(map[string]time.Time)}
}

// TTL returns the tracker's expiry window.
func (t *Tracker) TTL() time.Duration { return t.ttl }

// Touch records activity for key at now, creating the entry on first
// touch and restarting its clock otherwise.
func (t *Tracker) Touch(key string, now time.Time) {
	t.mu.Lock()
	t.last[key] = now
	t.mu.Unlock()
}

// Forget drops key from the tracker (settled lease, closed session).
// Forgetting an unknown key is a no-op.
func (t *Tracker) Forget(key string) {
	t.mu.Lock()
	delete(t.last, key)
	t.mu.Unlock()
}

// Len reports how many keys are tracked.
func (t *Tracker) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.last)
}

// Expired removes and returns every key whose last touch is at least
// one TTL before now, sorted so callers process expirations in a
// deterministic order. A key returned here is no longer tracked: the
// caller owns its afterlife (re-queue the lease, evict the session) and
// may Touch it again to start a fresh clock.
func (t *Tracker) Expired(now time.Time) []string {
	t.mu.Lock()
	var keys []string
	for key, at := range t.last {
		if now.Sub(at) >= t.ttl {
			keys = append(keys, key)
			delete(t.last, key)
		}
	}
	t.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// Candidates returns every key whose last touch is at least one TTL
// before now, sorted, WITHOUT removing anything — the first half of a
// two-phase sweep. Unlike Expired, listing a key here claims nothing:
// the caller must confirm each candidate with ExpireIf under the same
// lock that serializes its own Touch callers, so an entry touched after
// the listing survives the sweep instead of being evicted on a stale
// verdict.
func (t *Tracker) Candidates(now time.Time) []string {
	t.mu.Lock()
	var keys []string
	for key, at := range t.last {
		if now.Sub(at) >= t.ttl {
			keys = append(keys, key)
		}
	}
	t.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// ExpireIf removes key and reports true only if it is still tracked and
// still expired at now — the second half of a two-phase sweep. A key
// that was Touched after Candidates listed it is no longer expired, so
// ExpireIf leaves it tracked and returns false; likewise a key already
// Forgotten returns false.
func (t *Tracker) ExpireIf(key string, now time.Time) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	at, ok := t.last[key]
	if !ok || now.Sub(at) < t.ttl {
		return false
	}
	delete(t.last, key)
	return true
}

// Oldest returns the age of the least recently touched key at now, or
// zero when nothing is tracked — the federation's oldest-lease-age
// gauge.
func (t *Tracker) Oldest(now time.Time) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var oldest time.Duration
	for _, at := range t.last {
		if age := now.Sub(at); age > oldest {
			oldest = age
		}
	}
	return oldest
}

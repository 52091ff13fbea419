package expiry

import "time"

// Remaining reports how long key has before it expires at now, and
// whether the key is tracked at all. Zero or negative means the next
// Expired call will return it.
func (t *Tracker) Remaining(key string, now time.Time) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	at, ok := t.last[key]
	if !ok {
		return 0, false
	}
	return t.ttl - now.Sub(at), true
}

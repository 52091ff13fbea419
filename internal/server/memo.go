package server

import (
	"crypto/sha256"
	"sync"
)

// admissionMemo remembers what full admission worked out for a POST
// /v1/jobs body: the SHA-256 of the body's bytes maps to the content key
// and cell count its spec normalized to. It is exact, not a heuristic:
// decoding, normalization and the content key are pure functions of the
// body's bytes (and of the server's fixed configuration), so the same
// bytes always admit to the same key. A trace header is not part of the
// body and does not change the key. Only successful admissions are
// remembered; a body that answered an error is parsed again every time.
//
// The memo holds at most limit entries. Once full, each new body
// replaces the one remembered longest ago: a forgotten body only costs
// its next submission the full parse.
type admissionMemo struct {
	mu      sync.Mutex
	limit   int
	entries map[[sha256.Size]byte]admitted
	order   [][sha256.Size]byte // ring of remembered digests, oldest at next once full
	next    int
}

// admitted is what a full admission computed for one body.
type admitted struct {
	key   string
	cells int
}

func newAdmissionMemo(limit int) *admissionMemo {
	return &admissionMemo{limit: limit, entries: make(map[[sha256.Size]byte]admitted)}
}

// get returns what the body with this digest admitted to, if remembered.
func (m *admissionMemo) get(digest [sha256.Size]byte) (admitted, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	a, ok := m.entries[digest]
	return a, ok
}

// put remembers a successful admission of the body with this digest.
func (m *admissionMemo) put(digest [sha256.Size]byte, a admitted) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[digest]; ok {
		return // the same bytes admit to the same key
	}
	if len(m.order) < m.limit {
		m.order = append(m.order, digest)
	} else {
		delete(m.entries, m.order[m.next])
		m.order[m.next] = digest
		m.next = (m.next + 1) % m.limit
	}
	m.entries[digest] = a
}

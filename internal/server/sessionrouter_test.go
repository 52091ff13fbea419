package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"paco/internal/session"
)

// spyTransport wraps each request body to count bytes that differ from
// the fill byte the test put in the chunk when it sent the request.
type spyTransport struct {
	base  *http.Transport
	fill  atomic.Uint32 // the chunk's fill byte for the next request
	stale atomic.Int64  // bytes sent that were not the fill byte
}

type spyBody struct {
	io.ReadCloser
	t    *spyTransport
	fill byte
}

func (b *spyBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	for _, c := range p[:n] {
		if c != b.fill {
			b.t.stale.Add(1)
		}
	}
	return n, err
}

func (t *spyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body = &spyBody{ReadCloser: req.Body, t: t, fill: byte(t.fill.Load())}
	}
	return t.base.RoundTrip(req)
}

// TestRouterIngestLeavesChunkAlone pins the router's half of the pooled
// ingest buffer: the handler reuses a chunk's buffer once Ingest
// returns, and net/http may still read a request body after the reply
// has arrived. The worker here answers 429 before reading a 4 MiB
// upload, the case in which the transport returns the reply while its
// write loop is still sending, and the test overwrites the chunk as
// soon as Ingest returns, as the pool's next borrower would. Every byte
// the transport sends must still be the chunk's; under -race, a
// transport reading the caller's buffer would also be a reported race.
func TestRouterIngestLeavesChunkAlone(t *testing.T) {
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.URL.Path, "/drain/") {
			io.Copy(io.Discard, r.Body)
		}
		errorJSON(w, http.StatusTooManyRequests, "queue full")
	}))
	defer worker.Close()

	spy := &spyTransport{base: http.DefaultTransport.(*http.Transport).Clone()}
	defer spy.base.CloseIdleConnections()
	// No federation workers: a transport error fails the call over to
	// nobody and comes back as an error instead of a reply.
	rt := &sessionRouter{
		fed:      &federation{},
		client:   &http.Client{Transport: spy},
		sessions: map[string]*routedSession{},
	}

	chunk := make([]byte, session.MaxChunk)
	for i := 0; i < 20; i++ {
		e := &routedSession{id: "s", base: worker.URL, remoteID: "early", journal: session.NewJournal()}
		if i%4 == 0 {
			e.remoteID = "drain"
		}
		rt.sessions[e.id] = e
		for j := range chunk {
			chunk[j] = byte(i)
		}
		spy.fill.Store(uint32(byte(i)))
		_, _, err := rt.Ingest(e.id, session.FormatBinary, chunk)
		for j := range chunk {
			chunk[j] = ^byte(i)
		}
		if err == nil || e.journal.Len() != 0 {
			t.Fatalf("ingest %d: err %v, %d chunks journaled; want a rejection, none journaled", i, err, e.journal.Len())
		}
	}
	if n := spy.stale.Load(); n > 0 {
		t.Fatalf("the transport sent %d bytes written after Ingest returned", n)
	}
}

package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"paco/internal/obs"
	"paco/internal/server/expiry"
	"paco/internal/session"
)

// Session router — federated /v1/sessions (DESIGN.md §6b).
//
// With Config.RouteSessions the coordinator stops serving sessions from
// its local table and instead places each one on a federation worker:
// the session ID is rendezvous-hashed over the live workers that
// advertise a session endpoint in their lease polls, and every request
// for that ID proxies to the owner. The coordinator keeps an
// append-only journal of the chunks the owner acknowledged (202 only —
// a rejected chunk was not consumed and is not part of the stream), so
// when the owner dies mid-session the router re-opens the session's
// spec on the surviving worker the hash ranks next and replays the
// journal into it. Estimator sessions are deterministic functions of
// their event stream, so the failed-over session's scores — including
// the final DELETE document — are byte-identical to an uninterrupted
// run's.
//
// Failure model:
//
//   - Worker death: the first proxied request to hit a transport error
//     marks the worker dead (excluded from routing for one liveness
//     window — by then a genuinely dead worker has also stopped
//     heartbeating) and fails the session over before retrying the
//     request, so the client sees a served request, not an error.
//   - Worker-side eviction (its own idle TTL): treated as eviction of
//     the routed session — tombstoned, 410 "evicted". Deployments set
//     the worker-side TTL above the coordinator's so the coordinator's
//     sweep owns eviction (its remote DELETE pushes the terminal
//     "final" frame to attached live streams).
//   - No live session workers: open and failover answer 503.
//
// Concurrency: one mutex per routed session serializes its proxied
// operations (so a failover cannot interleave with an ingest's journal
// append), and the router map has its own lock. Lock order is entry
// before map; the map lock is never held across network calls.

// routerMaxFailovers bounds how many consecutive owner deaths one
// request will chase before giving up with 503.
const routerMaxFailovers = 4

// routedSession is the coordinator-side record of one live routed
// session. All fields after the identity block are guarded by mu.
type routedSession struct {
	id       string // coordinator-issued ID the client holds
	key      string // spec content address
	specJSON []byte // normalized spec, re-POSTed verbatim on failover

	mu       sync.Mutex
	worker   string // owning worker name
	base     string // owner's session endpoint base URL
	remoteID string // ID the owner's table issued
	gen      int    // bumped per failover; guards duplicate failovers
	journal  *session.Journal
}

// routedTomb remembers a closed routed session for one TTL, mapping
// straggler requests to a deterministic 410 — the same contract the
// local table's tombstones provide.
type routedTomb struct {
	reason string
	at     time.Time
}

type sessionRouter struct {
	fed    *federation
	obs    *serverObs
	client *http.Client // control-plane calls; SSE streams use per-request contexts
	clock  *expiry.Tracker
	sweep  time.Duration

	mu       sync.Mutex
	sessions map[string]*routedSession
	tombs    map[string]routedTomb
	dead     map[string]time.Time // worker -> when marked dead

	seq          atomic.Uint64
	journalBytes atomic.Int64

	stop chan struct{}
	wg   sync.WaitGroup
}

func newSessionRouter(fed *federation, o *serverObs, ttl, sweep time.Duration) *sessionRouter {
	if ttl <= 0 {
		ttl = 5 * time.Minute // the session table's default idle TTL
	}
	if sweep <= 0 {
		sweep = ttl / 4
	}
	return &sessionRouter{
		fed:      fed,
		obs:      o,
		client:   &http.Client{},
		clock:    expiry.New(ttl),
		sweep:    sweep,
		sessions: make(map[string]*routedSession),
		tombs:    make(map[string]routedTomb),
		dead:     make(map[string]time.Time),
		stop:     make(chan struct{}),
	}
}

func (rt *sessionRouter) start() {
	rt.wg.Add(1)
	go rt.sweeper()
}

func (rt *sessionRouter) shutdown() {
	close(rt.stop)
	rt.wg.Wait()
}

// open reports routed sessions currently live (backs the
// paco_session_routed_open gauge).
func (rt *sessionRouter) open() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.sessions)
}

// routeScore is the rendezvous weight of (session, worker): each
// session ranks every worker by an independent hash, and the highest
// score owns it. Workers joining or leaving only move the sessions that
// hashed onto them — no global reshuffle.
func routeScore(sessionID, worker string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(sessionID))
	h.Write([]byte{0})
	h.Write([]byte(worker))
	return h.Sum64()
}

// candidates returns the live session endpoints ranked for id: the
// federation's live advertisers, minus workers recently marked dead by
// a failed proxy call, ordered by descending rendezvous score. The
// first entry is the session's owner; the rest are its failover order.
func (rt *sessionRouter) candidates(id string) []sessionEndpoint {
	eps := rt.fed.sessionEndpoints()
	now := time.Now()
	rt.mu.Lock()
	live := eps[:0]
	for _, ep := range eps {
		if at, ok := rt.dead[ep.name]; ok {
			if now.Sub(at) <= rt.fed.liveness {
				continue
			}
			// Still advertising one liveness window after the failure:
			// the worker is heartbeating again, so trust it.
			delete(rt.dead, ep.name)
		}
		live = append(live, ep)
	}
	rt.mu.Unlock()
	sort.Slice(live, func(i, j int) bool {
		si, sj := routeScore(id, live[i].name), routeScore(id, live[j].name)
		if si != sj {
			return si > sj
		}
		return live[i].name < live[j].name
	})
	return live
}

func (rt *sessionRouter) markDead(worker string) {
	rt.mu.Lock()
	rt.dead[worker] = time.Now()
	rt.mu.Unlock()
	rt.obs.log.Warn("session worker marked dead", "worker", worker)
}

// missError maps an unrouted ID to the deterministic verdict the local
// table gives: *session.GoneError for a recently closed session,
// session.ErrNotFound for an ID the router never issued.
func (rt *sessionRouter) missError(id string) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if tb, ok := rt.tombs[id]; ok {
		return &session.GoneError{Reason: tb.reason}
	}
	return session.ErrNotFound
}

// lookup resolves id to its live entry, or writes the 404/410 miss
// response and returns nil.
func (rt *sessionRouter) lookup(w http.ResponseWriter, id string) *routedSession {
	rt.mu.Lock()
	e := rt.sessions[id]
	rt.mu.Unlock()
	if e == nil {
		err := rt.missError(id)
		errorJSON(w, sessionMissStatus(err), "%v", err)
		return nil
	}
	return e
}

// stillRoutedLocked re-checks, after e.mu was acquired, that e was not
// dropped (evicted or closed) while the caller waited for the lock.
func (rt *sessionRouter) stillRoutedLocked(e *routedSession) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.sessions[e.id] == e
}

// dropLocked removes e from the routing table and leaves a tombstone.
// Caller holds e.mu.
func (rt *sessionRouter) dropLocked(e *routedSession, reason string) {
	rt.mu.Lock()
	if rt.sessions[e.id] == e {
		delete(rt.sessions, e.id)
		rt.tombs[e.id] = routedTomb{reason: reason, at: time.Now()}
	}
	rt.mu.Unlock()
	rt.clock.Forget(e.id)
	rt.journalBytes.Add(-int64(e.journal.Bytes()))
	rt.obs.routedClosed.With(reason).Inc()
}

// handleOpen is the routed POST /v1/sessions: parse and normalize the
// spec exactly as the local handler does, mint a coordinator ID, pick
// the owner by rendezvous hash, and open the session there.
func (rt *sessionRouter) handleOpen(w http.ResponseWriter, r *http.Request) {
	spec, ok := readSessionSpec(w, r)
	if !ok {
		return
	}
	norm, err := spec.Normalized()
	if err != nil {
		errorJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	key, err := norm.Key()
	if err != nil {
		errorJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	specJSON, err := json.Marshal(norm)
	if err != nil {
		errorJSON(w, http.StatusInternalServerError, "%v", err)
		return
	}
	trace := r.Header.Get(obs.TraceHeader)
	if trace == "" {
		trace = obs.NewTraceID()
	}
	id := fmt.Sprintf("s-%s-%06d", key[:12], rt.seq.Add(1))

	e := &routedSession{id: id, key: key, specJSON: specJSON, journal: session.NewJournal()}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := rt.placeLocked(e); err != nil {
		errorJSON(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	rt.mu.Lock()
	rt.sessions[id] = e
	rt.mu.Unlock()
	rt.clock.Touch(id, time.Now())
	rt.obs.routedOpened.Inc()
	rt.obs.log.Info("session routed", "session", id, "worker", e.worker, "key", short(key), "trace", trace)
	w.Header().Set(obs.TraceHeader, trace)
	writeJSON(w, http.StatusCreated, sessionOpened{ID: id, Key: key, Spec: norm, Worker: e.worker})
}

// placeLocked opens e's spec on the best live candidate, walking the
// rendezvous ranking past workers that fail. Caller holds e.mu. On
// return e.worker/base/remoteID name the owner.
func (rt *sessionRouter) placeLocked(e *routedSession) error {
	cands := rt.candidates(e.id)
	if len(cands) == 0 {
		return errors.New("server: no live session workers (start workers with -sessions-addr)")
	}
	var lastErr error
	for _, cand := range cands {
		remoteID, err := rt.openOn(cand, e.specJSON)
		if err != nil {
			lastErr = err
			if isTransportError(err) {
				rt.markDead(cand.name)
			}
			continue
		}
		e.worker, e.base, e.remoteID = cand.name, cand.url, remoteID
		return nil
	}
	return fmt.Errorf("server: no session worker accepted the session: %w", lastErr)
}

// transportError wraps a connection-level failure (as opposed to an
// HTTP response) so placement and forwarding can tell a dead worker
// from a worker that answered with an error status.
type transportError struct{ err error }

func (t *transportError) Error() string { return t.err.Error() }
func (t *transportError) Unwrap() error { return t.err }

func isTransportError(err error) bool {
	var te *transportError
	return errors.As(err, &te)
}

// openOn opens a session with the given spec on one worker and returns
// the ID that worker's table issued.
func (rt *sessionRouter) openOn(ep sessionEndpoint, specJSON []byte) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ep.url+"/v1/sessions", bytes.NewReader(specJSON))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		return "", &transportError{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return "", fmt.Errorf("worker %s: open: %s: %s", ep.name, resp.Status, bytes.TrimSpace(msg))
	}
	var opened sessionOpened
	if err := json.NewDecoder(resp.Body).Decode(&opened); err != nil {
		return "", fmt.Errorf("worker %s: decoding open response: %w", ep.name, err)
	}
	return opened.ID, nil
}

// failoverLocked moves e off its (dead) owner: mark the owner dead,
// re-open the spec on the next live candidate, and replay the journal
// so the new session holds exactly the event stream the old owner had
// acknowledged. Caller holds e.mu; gen is bumped so a concurrent
// observer (the live-stream proxy) can tell its snapshot went stale.
func (rt *sessionRouter) failoverLocked(e *routedSession) error {
	dead := e.worker
	rt.markDead(dead)
	cands := rt.candidates(e.id)
	var lastErr error
	for _, cand := range cands {
		remoteID, err := rt.openOn(cand, e.specJSON)
		if err != nil {
			lastErr = err
			if isTransportError(err) {
				rt.markDead(cand.name)
			}
			continue
		}
		if err := rt.replayJournal(cand, remoteID, e.journal); err != nil {
			lastErr = err
			if isTransportError(err) {
				rt.markDead(cand.name)
			}
			continue
		}
		e.worker, e.base, e.remoteID = cand.name, cand.url, remoteID
		e.gen++
		rt.obs.failovers.Inc()
		rt.obs.failoverReplayed.Add(uint64(e.journal.Len()))
		rt.obs.log.Warn("session failed over",
			"session", e.id, "from", dead, "to", cand.name,
			"chunks", e.journal.Len(), "bytes", e.journal.Bytes(), "gen", e.gen)
		return nil
	}
	if lastErr == nil {
		lastErr = errors.New("no live session workers")
	}
	return fmt.Errorf("server: session %s failover: %w", e.id, lastErr)
}

// replayJournal streams a journal's chunks into a freshly opened
// session, honoring the worker's backpressure (bounded 429 retries per
// chunk, paced by its Retry-After hint).
func (rt *sessionRouter) replayJournal(ep sessionEndpoint, remoteID string, j *session.Journal) error {
	contentType := "application/x-ndjson"
	if j.Format() == session.FormatBinary {
		contentType = "application/octet-stream"
	}
	for _, chunk := range j.Chunks() {
		for attempt := 0; ; attempt++ {
			status, retryAfter, err := rt.post(ep.url+"/v1/sessions/"+remoteID+"/events", contentType, chunk)
			if err != nil {
				return &transportError{err: err}
			}
			if status == http.StatusAccepted {
				break
			}
			if status == http.StatusTooManyRequests && attempt < 100 {
				d := time.Second
				if s, err := strconv.Atoi(retryAfter); err == nil && s > 0 {
					d = time.Duration(s) * time.Second
				}
				time.Sleep(min(d, time.Second))
				continue
			}
			return fmt.Errorf("worker %s: replay chunk rejected: HTTP %d", ep.name, status)
		}
	}
	return nil
}

// post sends one control-plane POST and fully consumes the response,
// returning its status and Retry-After hint.
func (rt *sessionRouter) post(url, contentType string, body []byte) (int, string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, resp.Header.Get("Retry-After"), nil
}

// forwardLocked proxies one request to e's owner, failing the session
// over (and retrying the request on the new owner) when the owner is
// unreachable. Caller holds e.mu. The returned response body is fully
// read into the returned byte slice and closed.
func (rt *sessionRouter) forwardLocked(e *routedSession, method, suffix, contentType string, body []byte) (*http.Response, []byte, error) {
	for attempt := 0; attempt <= routerMaxFailovers; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method,
			e.base+"/v1/sessions/"+e.remoteID+suffix, rd)
		if err != nil {
			cancel()
			return nil, nil, err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			cancel()
			if ferr := rt.failoverLocked(e); ferr != nil {
				return nil, nil, ferr
			}
			continue
		}
		respBody, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
		resp.Body.Close()
		cancel()
		if err != nil {
			if ferr := rt.failoverLocked(e); ferr != nil {
				return nil, nil, ferr
			}
			continue
		}
		return resp, respBody, nil
	}
	return nil, nil, fmt.Errorf("server: session %s: owner kept dying (%d failovers)", e.id, routerMaxFailovers)
}

// relay writes an upstream response verbatim — status, error/content
// headers, and body bytes — so routed responses (including the final
// scores document clients byte-compare against offline replay) are
// identical to what the owning worker produced.
func relay(w http.ResponseWriter, resp *http.Response, body []byte) {
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}

// upstreamGone reports a 404/410 from the owning worker: the worker's
// table no longer knows the session (its own idle TTL fired, or a
// direct client deleted it out from under the router).
func upstreamGone(status int) bool {
	return status == http.StatusNotFound || status == http.StatusGone
}

// handleEvents is the routed chunk ingest: forward to the owner, and
// journal the chunk iff the owner acknowledged it (202). A 429 is
// relayed without journaling — the chunk was not consumed, and the
// client's retry of the identical bytes lands here again.
func (rt *sessionRouter) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, ok := readBody(w, r, maxSessionChunk, "reading events")
	if !ok {
		return
	}
	e := rt.lookup(w, id)
	if e == nil {
		return
	}
	format := sessionFormat(r)
	contentType := r.Header.Get("Content-Type")
	if contentType == "" {
		contentType = "application/x-ndjson"
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !rt.stillRoutedLocked(e) {
		err := rt.missError(id)
		errorJSON(w, sessionMissStatus(err), "%v", err)
		return
	}
	resp, respBody, err := rt.forwardLocked(e, http.MethodPost, "/events", contentType, body)
	if err != nil {
		errorJSON(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if upstreamGone(resp.StatusCode) {
		rt.dropLocked(e, session.CloseEvicted)
		err := rt.missError(id)
		errorJSON(w, sessionMissStatus(err), "%v", err)
		return
	}
	if resp.StatusCode == http.StatusAccepted {
		if err := e.journal.Append(format, body); err != nil {
			// Unreachable in practice: the owner accepted the chunk, so
			// the formats agreed there. Surface rather than diverge.
			errorJSON(w, http.StatusConflict, "%v", err)
			return
		}
		rt.journalBytes.Add(int64(len(body)))
		rt.clock.Touch(id, time.Now())
		rt.obs.routedChunks.Inc()
	}
	relay(w, resp, respBody)
}

// handleScores proxies the snapshot read (an activity signal, like the
// local handler's).
func (rt *sessionRouter) handleScores(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e := rt.lookup(w, id)
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !rt.stillRoutedLocked(e) {
		err := rt.missError(id)
		errorJSON(w, sessionMissStatus(err), "%v", err)
		return
	}
	resp, respBody, err := rt.forwardLocked(e, http.MethodGet, "/scores", "", nil)
	if err != nil {
		errorJSON(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if upstreamGone(resp.StatusCode) {
		rt.dropLocked(e, session.CloseEvicted)
		err := rt.missError(id)
		errorJSON(w, sessionMissStatus(err), "%v", err)
		return
	}
	if resp.StatusCode == http.StatusOK {
		rt.clock.Touch(id, time.Now())
	}
	relay(w, resp, respBody)
}

// handleClose proxies the DELETE. The final-scores document is relayed
// byte-for-byte from the owner — and because failover replays the
// acknowledged stream, those bytes match an uninterrupted run even if
// the session changed workers mid-stream.
func (rt *sessionRouter) handleClose(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e := rt.lookup(w, id)
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !rt.stillRoutedLocked(e) {
		err := rt.missError(id)
		errorJSON(w, sessionMissStatus(err), "%v", err)
		return
	}
	resp, respBody, err := rt.forwardLocked(e, http.MethodDelete, "", "", nil)
	if err != nil {
		errorJSON(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if upstreamGone(resp.StatusCode) {
		rt.dropLocked(e, session.CloseEvicted)
		err := rt.missError(id)
		errorJSON(w, sessionMissStatus(err), "%v", err)
		return
	}
	if resp.StatusCode == http.StatusOK {
		rt.dropLocked(e, session.CloseClient)
		rt.obs.log.Info("session closed", "session", id, "worker", e.worker, "reason", session.CloseClient)
	}
	relay(w, resp, respBody)
}

// handleLive proxies the SSE score stream. The proxy subscribes to the
// owner's /live and forwards frames; when the owner dies mid-stream it
// fails the session over (unless another request already did — the gen
// check) and resubscribes on the new owner, so the client's stream
// survives the death and still ends with the terminal "final" frame.
func (rt *sessionRouter) handleLive(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e := rt.lookup(w, id)
	if e == nil {
		return
	}
	send, ok := sseStart(w)
	if !ok {
		return
	}
	for {
		e.mu.Lock()
		if !rt.stillRoutedLocked(e) {
			e.mu.Unlock()
			return
		}
		base, remoteID, gen := e.base, e.remoteID, e.gen
		e.mu.Unlock()

		final, err := rt.proxyStream(r.Context(), send, base, remoteID)
		if final || r.Context().Err() != nil {
			return
		}
		// The upstream stream broke without a terminal frame: the owner
		// died (err != nil) or closed the stream early. Fail over if no
		// one else has, then resubscribe on the current owner.
		e.mu.Lock()
		if !rt.stillRoutedLocked(e) {
			e.mu.Unlock()
			return
		}
		if e.gen == gen {
			if ferr := rt.failoverLocked(e); ferr != nil {
				e.mu.Unlock()
				rt.obs.log.Warn("live stream lost its session", "session", id, "error", errors.Join(err, ferr))
				return
			}
		}
		e.mu.Unlock()
	}
}

// proxyStream forwards one upstream /live subscription frame-by-frame.
// It returns final=true when the terminal "final" frame was forwarded
// (the stream is complete) and an error when the upstream connection
// failed before that.
func (rt *sessionRouter) proxyStream(ctx context.Context, send func(name string, data []byte), base, remoteID string) (final bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/sessions/"+remoteID+"/live", nil)
	if err != nil {
		return false, err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 512))
		return false, fmt.Errorf("upstream live: HTTP %d", resp.StatusCode)
	}
	var name string
	var data []byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), maxSessionChunk)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "" && name != "":
			send(name, data)
			if name == "final" {
				return true, nil
			}
			name, data = "", nil
		}
	}
	return false, sc.Err()
}

// sweeper evicts idle routed sessions on the coordinator's TTL, exactly
// as the local table's sweep does: candidacy then claim, so an entry
// touched mid-sweep survives. Eviction DELETEs the remote session
// (best-effort — pushing the "final" frame to any attached live
// streams) and tombstones the ID. Tombstones age out after one TTL.
func (rt *sessionRouter) sweeper() {
	defer rt.wg.Done()
	ticker := time.NewTicker(rt.sweep)
	defer ticker.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-ticker.C:
			rt.sweepOnce(time.Now())
		}
	}
}

func (rt *sessionRouter) sweepOnce(now time.Time) {
	for _, id := range rt.clock.Candidates(now) {
		rt.mu.Lock()
		e := rt.sessions[id]
		rt.mu.Unlock()
		if e == nil {
			continue
		}
		e.mu.Lock()
		if !rt.clock.ExpireIf(id, now) {
			e.mu.Unlock()
			continue // touched between candidacy and claim: it lives
		}
		rt.deleteUpstream(e)
		rt.dropLocked(e, session.CloseEvicted)
		rt.obs.log.Info("routed session evicted", "session", id, "worker", e.worker)
		e.mu.Unlock()
	}
	rt.mu.Lock()
	ttl := rt.clock.TTL()
	for id, tb := range rt.tombs {
		if now.Sub(tb.at) >= ttl {
			delete(rt.tombs, id)
		}
	}
	rt.mu.Unlock()
}

// deleteUpstream best-effort DELETEs e's remote session; eviction
// proceeds regardless of the outcome (a dead owner's table is gone with
// it, a live owner pushes the "final" frame to attached live streams).
func (rt *sessionRouter) deleteUpstream(e *routedSession) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		e.base+"/v1/sessions/"+e.remoteID, nil)
	if err != nil {
		return
	}
	if resp, err := rt.client.Do(req); err == nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<20))
		resp.Body.Close()
	}
}

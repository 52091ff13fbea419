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
	"sync"
	"sync/atomic"
	"time"

	"paco/internal/obs"
	"paco/internal/server/expiry"
	"paco/internal/session"
)

// Session router — federated /v1/sessions (DESIGN.md §6b).
//
// With Config.RouteSessions the coordinator has no session table of its
// own; the router is the backend behind the /v1/sessions handlers
// instead. It places each session on a federation worker: the session
// ID is rendezvous-hashed over the live workers that advertise a
// session endpoint in their lease polls, and every request for that ID
// goes to the owner. The router returns the table's typed values and
// errors — it decodes the owner's replies and maps the owner's error
// statuses back to the table's errors (ownerErrorLocked) — so the one
// set of handlers answers routed and local requests alike. The
// coordinator keeps an append-only journal of the chunks the owner
// acknowledged (202 only — a rejected chunk was not consumed and is not
// part of the stream), so when the owner dies mid-session the router
// re-opens the session's spec on the surviving worker the hash ranks
// next and replays the journal into it. Estimator sessions are
// deterministic functions of their event stream, so the failed-over
// session's scores — including the final DELETE document — are
// byte-identical to an uninterrupted run's.
//
// Failure model:
//
//   - Worker death: the first request to the owner that hits a
//     transport error marks the worker dead (excluded from routing for
//     one liveness window — by then a genuinely dead worker has also
//     stopped heartbeating) and fails the session over before retrying
//     the request, so the client sees a served request, not an error.
//   - Worker-side eviction (its own idle TTL): an owner 404/410 drops
//     the routed session as evicted — tombstoned, 410 "evicted". The
//     owner is healthy and stays in the routing set. Deployments set
//     the worker-side TTL above the coordinator's so the coordinator's
//     sweep owns eviction (its remote DELETE pushes the terminal
//     "final" frame to attached live streams).
//   - No live session workers: open and failover fail with
//     errNoSessionWorker (503).
//
// Concurrency: one mutex per routed session serializes its requests to
// the owner (so a failover cannot interleave with an ingest's journal
// append), and the router map has its own lock. Lock order is entry
// before map; the map lock is never held across network calls, and
// neither lock is held while a live stream is open.

// routerMaxFailovers bounds how many consecutive owner deaths one
// request will chase before giving up with 503.
const routerMaxFailovers = 4

// errNoSessionWorker reports a routed request that no live session
// worker could serve (→ 503).
var errNoSessionWorker = errors.New("server: no session worker available")

// routedSession is the coordinator-side record of one live routed
// session. All fields after the identity block are guarded by mu.
type routedSession struct {
	id       string // coordinator-issued ID the client holds
	trace    string // the opening request's trace, forwarded on every (re-)open
	specJSON []byte // normalized spec, re-POSTed verbatim on failover

	mu       sync.Mutex
	worker   string // owning worker name; "" until first placed
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
	client *http.Client // every call carries its own context
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

// lock resolves id to its live entry and locks it, or returns the
// miss verdict.
func (rt *sessionRouter) lock(id string) (*routedSession, error) {
	rt.mu.Lock()
	e := rt.sessions[id]
	rt.mu.Unlock()
	if e != nil {
		e.mu.Lock()
		if rt.stillRoutedLocked(e) {
			return e, nil
		}
		e.mu.Unlock()
	}
	return nil, rt.missError(id)
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

// Open normalizes the spec exactly as the table does, mints a
// coordinator ID, and places the session on the worker the rendezvous
// hash ranks first.
func (rt *sessionRouter) Open(spec session.Spec, trace string) (sessionOpened, error) {
	norm, err := spec.Normalized()
	if err != nil {
		return sessionOpened{}, err
	}
	key, err := norm.Key()
	if err != nil {
		return sessionOpened{}, err
	}
	specJSON, err := json.Marshal(norm)
	if err != nil {
		return sessionOpened{}, err
	}
	id := fmt.Sprintf("s-%s-%06d", key[:12], rt.seq.Add(1))

	e := &routedSession{id: id, trace: trace, specJSON: specJSON, journal: session.NewJournal()}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := rt.placeLocked(e); err != nil {
		return sessionOpened{}, err
	}
	rt.mu.Lock()
	rt.sessions[id] = e
	rt.mu.Unlock()
	rt.clock.Touch(id, time.Now())
	rt.obs.routedOpened.Inc()
	rt.obs.log.Info("session routed", "session", id, "worker", e.worker, "key", short(key), "trace", trace)
	return sessionOpened{ID: id, Key: key, Spec: norm, Worker: e.worker}, nil
}

// placeLocked homes e on the best live candidate: it opens e's spec
// there and replays e's journal, walking the rendezvous ranking past
// workers that fail. First placement is the degenerate failover, with
// no previous owner and an empty journal. A real failover first marks
// the previous owner dead and then bumps gen, so a concurrent observer
// (the live-stream relay) can tell its stream went stale. Caller holds
// e.mu.
func (rt *sessionRouter) placeLocked(e *routedSession) error {
	from := e.worker
	if from != "" {
		rt.markDead(from)
	}
	lastErr := errors.New("no live session workers (start workers with -sessions-addr)")
	for _, cand := range rt.candidates(e.id) {
		remoteID, err := rt.openOn(cand, e)
		if err == nil {
			err = rt.replayJournal(cand, remoteID, e.journal)
		}
		if err != nil {
			lastErr = err
			if isTransportError(err) {
				rt.markDead(cand.name)
			}
			continue
		}
		e.worker, e.base, e.remoteID = cand.name, cand.url, remoteID
		if from != "" {
			e.gen++
			rt.obs.failovers.Inc()
			rt.obs.failoverReplayed.Add(uint64(e.journal.Len()))
			rt.obs.log.Warn("session failed over",
				"session", e.id, "from", from, "to", cand.name,
				"chunks", e.journal.Len(), "bytes", e.journal.Bytes(), "gen", e.gen)
		}
		return nil
	}
	return fmt.Errorf("%w for session %s: %v", errNoSessionWorker, e.id, lastErr)
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

// send issues one request to a session worker; every call the router
// makes goes through it. A connection-level failure comes back as
// *transportError. A request whose context the caller cancelled comes
// back as the context's error: the caller went away, the worker did
// not die.
func (rt *sessionRouter) send(ctx context.Context, method, url, contentType, trace string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if trace != "" {
		req.Header.Set(obs.TraceHeader, trace)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		if errors.Is(ctx.Err(), context.Canceled) {
			return nil, ctx.Err()
		}
		return nil, &transportError{err: err}
	}
	return resp, nil
}

// reply is a session worker's complete answer to one request.
type reply struct {
	status int
	header http.Header
	body   []byte
}

// exchange is one control-plane call: send with a 30s timeout and read
// the whole reply. A reply cut off mid-body is a transport failure
// too.
func (rt *sessionRouter) exchange(method, url, contentType, trace string, body []byte) (reply, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, err := rt.send(ctx, method, url, contentType, trace, body)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return reply{}, &transportError{err: err}
	}
	return reply{status: resp.StatusCode, header: resp.Header, body: data}, nil
}

// decodeReply decodes a worker's success reply into v.
func decodeReply(worker string, body []byte, v any) error {
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("%w: worker %s: decoding reply: %v", errNoSessionWorker, worker, err)
	}
	return nil
}

// contentType is the ingest Content-Type that sessionFormat maps back
// to f.
func contentType(f session.Format) string {
	if f == session.FormatBinary {
		return "application/octet-stream"
	}
	return "application/x-ndjson"
}

// openOn opens e's spec on one worker, under e's trace, and returns the
// ID that worker's table issued.
func (rt *sessionRouter) openOn(ep sessionEndpoint, e *routedSession) (string, error) {
	rep, err := rt.exchange(http.MethodPost, ep.url+"/v1/sessions", "application/json", e.trace, e.specJSON)
	if err != nil {
		return "", err
	}
	if rep.status != http.StatusCreated {
		return "", fmt.Errorf("worker %s: open: HTTP %d: %s", ep.name, rep.status, bytes.TrimSpace(rep.body))
	}
	var opened sessionOpened
	if err := decodeReply(ep.name, rep.body, &opened); err != nil {
		return "", err
	}
	return opened.ID, nil
}

// replayJournal streams a journal's chunks into a freshly opened
// session, honoring the worker's backpressure (bounded 429 retries per
// chunk, one second apart).
func (rt *sessionRouter) replayJournal(ep sessionEndpoint, remoteID string, j *session.Journal) error {
	for _, chunk := range j.Chunks() {
		for attempt := 0; ; attempt++ {
			rep, err := rt.exchange(http.MethodPost, ep.url+"/v1/sessions/"+remoteID+"/events",
				contentType(j.Format()), "", chunk)
			if err != nil {
				return err
			}
			if rep.status == http.StatusAccepted {
				break
			}
			if rep.status == http.StatusTooManyRequests && attempt < 100 {
				time.Sleep(time.Second)
				continue
			}
			return fmt.Errorf("worker %s: replay chunk rejected: HTTP %d", ep.name, rep.status)
		}
	}
	return nil
}

// forwardLocked sends one request to e's owner, failing the session
// over and retrying on the new owner while the owner is unreachable.
// Caller holds e.mu.
func (rt *sessionRouter) forwardLocked(e *routedSession, method, suffix, contentType string, body []byte) (reply, error) {
	for attempt := 0; attempt <= routerMaxFailovers; attempt++ {
		rep, err := rt.exchange(method, e.base+"/v1/sessions/"+e.remoteID+suffix, contentType, "", body)
		if !isTransportError(err) {
			return rep, err
		}
		if err := rt.placeLocked(e); err != nil {
			return reply{}, err
		}
	}
	return reply{}, fmt.Errorf("%w for session %s: owner kept dying (%d failovers)", errNoSessionWorker, e.id, routerMaxFailovers)
}

// ownerError is an owner's error reply: its message verbatim (so the
// handlers answer with the owner's bytes), wrapping the table error
// that selects the same status.
type ownerError struct {
	msg   string
	cause error
}

func (e *ownerError) Error() string { return e.msg }
func (e *ownerError) Unwrap() error { return e.cause }

// ownerErrorLocked maps the owner's error reply to the error the table
// returns for the same condition. An owner that no longer knows the
// session (its own idle TTL fired, or a direct client deleted it) drops
// the routed session as evicted; the owner itself is healthy. Caller
// holds e.mu and has checked that e is still routed.
func (rt *sessionRouter) ownerErrorLocked(e *routedSession, rep reply) error {
	var cause error
	switch rep.status {
	case http.StatusNotFound, http.StatusGone:
		rt.dropLocked(e, session.CloseEvicted)
		return rt.missError(e.id)
	case http.StatusTooManyRequests:
		secs, _ := strconv.Atoi(rep.header.Get("Retry-After"))
		cause = &session.BackpressureError{RetryAfter: time.Duration(secs) * time.Second}
	case http.StatusConflict:
		cause = &session.FormatError{} // the owner's message names the formats
	case http.StatusBadRequest:
	default:
		cause = errNoSessionWorker
	}
	var msg struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(rep.body, &msg) != nil || msg.Error == "" {
		msg.Error = fmt.Sprintf("worker %s: HTTP %d", e.worker, rep.status)
	}
	return &ownerError{msg: msg.Error, cause: cause}
}

// Ingest forwards a chunk to the owner and journals it iff the owner
// acknowledged it (202). A rejected chunk was not consumed and is not
// journaled: the client's retry of the identical bytes lands here
// again.
func (rt *sessionRouter) Ingest(id string, format session.Format, chunk []byte) (accepted, queued int, err error) {
	e, err := rt.lock(id)
	if err != nil {
		return 0, 0, err
	}
	defer e.mu.Unlock()
	rep, err := rt.forwardLocked(e, http.MethodPost, "/events", contentType(format), chunk)
	if err != nil {
		return 0, 0, err
	}
	if rep.status != http.StatusAccepted {
		return 0, 0, rt.ownerErrorLocked(e, rep)
	}
	if err := e.journal.Append(format, chunk); err != nil {
		// Unreachable in practice: the owner accepted the chunk, so
		// the formats agreed there. Surface rather than diverge.
		return 0, 0, err
	}
	rt.journalBytes.Add(int64(len(chunk)))
	rt.clock.Touch(id, time.Now())
	rt.obs.routedChunks.Inc()
	var ack sessionIngested
	err = decodeReply(e.worker, rep.body, &ack)
	return ack.Accepted, ack.Queued, err
}

// Scores reads the owner's snapshot (an activity signal, as on the
// table).
func (rt *sessionRouter) Scores(id string) (session.Scores, error) {
	e, err := rt.lock(id)
	if err != nil {
		return session.Scores{}, err
	}
	defer e.mu.Unlock()
	rep, err := rt.forwardLocked(e, http.MethodGet, "/scores", "", nil)
	if err != nil {
		return session.Scores{}, err
	}
	if rep.status != http.StatusOK {
		return session.Scores{}, rt.ownerErrorLocked(e, rep)
	}
	rt.clock.Touch(id, time.Now())
	var sc session.Scores
	err = decodeReply(e.worker, rep.body, &sc)
	return sc, err
}

// Close closes the owner's session and returns its final scores.
// Because failover replays the acknowledged stream, they match an
// uninterrupted run's even if the session changed workers mid-stream.
func (rt *sessionRouter) Close(id, reason string) (session.Scores, error) {
	e, err := rt.lock(id)
	if err != nil {
		return session.Scores{}, err
	}
	defer e.mu.Unlock()
	rep, err := rt.forwardLocked(e, http.MethodDelete, "", "", nil)
	if err != nil {
		return session.Scores{}, err
	}
	if rep.status != http.StatusOK {
		return session.Scores{}, rt.ownerErrorLocked(e, rep)
	}
	rt.dropLocked(e, reason)
	rt.obs.log.Info("session closed", "session", id, "worker", e.worker, "reason", reason)
	var final session.Scores
	err = decodeReply(e.worker, rep.body, &final)
	return final, err
}

// Subscribe relays the owner's live stream into a latest-wins channel.
// The owner is subscribed before Subscribe returns, so an owner that no
// longer knows the session yields the miss verdict, not a stream. When
// the owner's stream breaks before its final snapshot, the relay fails
// the session over (unless a concurrent request already moved it) and
// resubscribes on the new owner, so the stream still ends with the
// final snapshot. cancel stops the relay.
func (rt *sessionRouter) Subscribe(id string) (<-chan session.Scores, func(), error) {
	rt.mu.Lock()
	e := rt.sessions[id]
	rt.mu.Unlock()
	if e == nil {
		return nil, nil, rt.missError(id)
	}
	ctx, cancel := context.WithCancel(context.Background())
	resp, gen, err := rt.subscribeOwner(ctx, e, -1)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	ch := make(chan session.Scores, 1)
	go func() {
		defer close(ch)
		for {
			final := relayLive(resp.Body, ch)
			resp.Body.Close()
			if final || ctx.Err() != nil {
				return
			}
			if resp, gen, err = rt.subscribeOwner(ctx, e, gen); err != nil {
				if ctx.Err() == nil {
					rt.obs.log.Warn("live stream lost its session", "session", id, "error", err)
				}
				return
			}
		}
	}()
	return ch, cancel, nil
}

// subscribeOwner opens the live stream of e's owner and returns it with
// the generation it belongs to. broken names the generation whose
// stream just ended without a final snapshot (-1 for none): that owner
// is presumed dead, and the session fails over unless a concurrent
// request already moved it. The stream is opened without holding e.mu,
// so it never blocks the session's other requests.
func (rt *sessionRouter) subscribeOwner(ctx context.Context, e *routedSession, broken int) (*http.Response, int, error) {
	for attempt := 0; attempt <= routerMaxFailovers; attempt++ {
		e.mu.Lock()
		if !rt.stillRoutedLocked(e) {
			e.mu.Unlock()
			return nil, 0, rt.missError(e.id)
		}
		if e.gen == broken {
			if err := rt.placeLocked(e); err != nil {
				e.mu.Unlock()
				return nil, 0, err
			}
		}
		gen, url := e.gen, e.base+"/v1/sessions/"+e.remoteID+"/live"
		e.mu.Unlock()

		resp, err := rt.send(ctx, http.MethodGet, url, "", "", nil)
		if isTransportError(err) {
			broken = gen
			continue
		}
		if err != nil {
			return nil, 0, err
		}
		if resp.StatusCode == http.StatusOK {
			return resp, gen, nil
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		resp.Body.Close()
		e.mu.Lock()
		switch {
		case !rt.stillRoutedLocked(e):
			err = rt.missError(e.id)
		case e.gen != gen:
			// Failed over while this request was in flight: the old
			// owner's verdict is moot, try the new owner.
			e.mu.Unlock()
			continue
		default:
			err = rt.ownerErrorLocked(e, reply{status: resp.StatusCode, header: resp.Header, body: body})
		}
		e.mu.Unlock()
		return nil, 0, err
	}
	return nil, 0, fmt.Errorf("%w for session %s: owner kept dying (%d failovers)", errNoSessionWorker, e.id, routerMaxFailovers)
}

// relayLive forwards the snapshots of one owner live stream into ch,
// latest-wins, and reports whether the stream ended with the final
// snapshot. The relay is ch's only sender, so after dropping an
// undelivered snapshot the send cannot block.
func relayLive(stream io.Reader, ch chan session.Scores) bool {
	sc := bufio.NewScanner(stream)
	sc.Buffer(make([]byte, 0, 64<<10), maxSessionChunk)
	for sc.Scan() {
		data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
		if !ok {
			continue
		}
		var snap session.Scores
		if json.Unmarshal(data, &snap) != nil {
			return false
		}
		select {
		case <-ch:
		default:
		}
		ch <- snap
		if snap.Final {
			return true
		}
	}
	return false
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
		// Outcome ignored: a dead owner's table died with it.
		rt.exchange(http.MethodDelete, e.base+"/v1/sessions/"+e.remoteID, "", "", nil)
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

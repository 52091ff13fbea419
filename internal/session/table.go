package session

import (
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"paco/internal/obs"
	"paco/internal/server/expiry"
	"paco/internal/trace"
)

// Table is the service view of sessions: an N-way sharded in-memory
// store with per-shard locks and one apply worker per shard. Ingest
// never applies events inline — it decodes, enqueues onto the session's
// bounded queue, and wakes the shard worker, so the HTTP handler's cost
// is parsing plus a queue append regardless of estimator count. The
// worker drains whole queues per wakeup (per-shard batching), publishes
// a fresh snapshot to live subscribers after each drain, and an idle
// sweeper built on the same expiry.Tracker as federation leases evicts
// sessions that stop talking.
//
// Overload answers, in order: a full table rejects Open (ErrTableFull →
// 503), a full per-session queue rejects the chunk with
// *BackpressureError (→ 429 + Retry-After) after rolling the decoder
// back so the client retries the identical bytes, and nothing ever
// blocks or silently drops an acknowledged event.
type Table struct {
	shards  []*shard
	tracker *expiry.Tracker
	metrics Metrics
	rec     *obs.Recorder
	log     *slog.Logger
	now     func() time.Time

	maxSessions int
	maxQueued   int
	retryAfter  time.Duration

	seq    atomic.Uint64
	open   atomic.Int64
	queued atomic.Int64

	stop     chan struct{}
	stopping atomic.Bool
	wg       sync.WaitGroup
}

// Metrics are the table's exported instruments, registered by the owner
// (the server wires them as paco_session_*). Any nil instrument is
// skipped — obs instruments are nil-safe.
type Metrics struct {
	Opened         *obs.Counter    // sessions opened
	Closed         *obs.CounterVec // sessions closed, by reason (client/evicted/shutdown)
	OpenRejected   *obs.Counter    // opens rejected by the session cap
	Events         *obs.Counter    // events accepted into queues
	Backpressure   *obs.Counter    // ingest chunks rejected by a full queue
	IngestDuration *obs.Histogram  // seconds per ingest call (decode + enqueue)
	ApplyBatch     *obs.Histogram  // events applied per worker drain
}

// Close reasons, the label values of Metrics.Closed.
const (
	CloseClient   = "client"   // explicit DELETE
	CloseEvicted  = "evicted"  // idle TTL sweep
	CloseShutdown = "shutdown" // table shutdown
)

// TableConfig sizes a Table. The zero value serves.
type TableConfig struct {
	// Shards is the lock/worker fan-out (default 8).
	Shards int
	// MaxSessions caps concurrently open sessions (default 1024).
	MaxSessions int
	// MaxQueuedEvents caps one session's decoded-but-unapplied events;
	// ingest past it is rejected with *BackpressureError (default
	// 65536). The cap is a high-water mark: a chunk arriving at an
	// empty queue is always accepted, whatever its size, so a client
	// whose chunks exceed the cap still makes progress one chunk at a
	// time instead of looping on 429s forever. (Chunk size itself is
	// bounded by the HTTP layer's body cap.)
	MaxQueuedEvents int
	// IdleTTL evicts sessions with no ingest or score reads for this
	// long (default 5m). SweepInterval is the eviction cadence
	// (default IdleTTL/4).
	IdleTTL       time.Duration
	SweepInterval time.Duration
	// RetryAfter is the backoff hint carried by *BackpressureError
	// (default 1s).
	RetryAfter time.Duration

	Metrics  Metrics
	Recorder *obs.Recorder // session spans (nil disables)
	Log      *slog.Logger  // nil discards
	Now      func() time.Time
}

type shard struct {
	t *Table

	mu       sync.Mutex
	sessions map[string]*entry
	tombs    map[string]tombstone
	dirty    []*entry

	wake chan struct{} // cap 1: coalesced worker wakeups
}

// tombstone remembers why a recently closed session went away, so a
// straggling request (a DELETE racing the idle sweeper, a poll after an
// eviction) gets a deterministic *GoneError instead of a flaky
// ErrNotFound. Tombstones age out one IdleTTL after the close.
type tombstone struct {
	reason string
	at     time.Time
}

// Ingest formats. A session locks onto whichever format its first chunk
// used; mixing formats mid-stream is a client error.
type Format string

const (
	FormatBinary Format = "binary" // internal/trace v1/v2 frames
	FormatNDJSON Format = "ndjson" // one JSON event per line
)

// entry is one live session plus its ingest state. All fields are
// guarded by the owning shard's mutex.
type entry struct {
	id   string
	key  string
	sess *Session

	format Format        // locked at first ingest; "" before
	dec    trace.Decoder // binary ingest state
	ndrem  []byte        // NDJSON partial-line remainder

	queue   [][]trace.Event
	nqueued int
	inDirty bool

	subs map[chan Scores]struct{}
	span obs.Span
}

// Table errors and their HTTP mappings (made by the server layer).
var (
	ErrNotFound  = errors.New("session: no such session")        // 404
	ErrTableFull = errors.New("session: session table full")     // 503
	ErrShutdown  = errors.New("session: table is shutting down") // 503
)

// GoneError reports an operation on a session that existed but has
// already closed; Reason is the close reason (CloseClient, CloseEvicted,
// CloseShutdown). The server layer maps it to HTTP 410 — distinct from
// the 404 an ID the table never issued gets — so a client whose DELETE
// races the idle sweeper sees a deterministic verdict naming the reason
// rather than a flaky not-found.
type GoneError struct {
	Reason string
}

func (e *GoneError) Error() string {
	return fmt.Sprintf("session: closed (%s)", e.Reason)
}

// BackpressureError rejects an ingest chunk whose events would overflow
// the session's queue. The decoder state has been rolled back: retrying
// the same bytes after RetryAfter is correct and lossless.
type BackpressureError struct {
	RetryAfter time.Duration
	Queued     int // events already queued
	Limit      int
}

func (e *BackpressureError) Error() string {
	return fmt.Sprintf("session: queue full (%d/%d events); retry after %s", e.Queued, e.Limit, e.RetryAfter)
}

// FormatError rejects a chunk in a different encoding than the session's
// stream started with.
type FormatError struct {
	Have, Got Format
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("session: stream is %s, chunk is %s", e.Have, e.Got)
}

// NewTable builds and starts a table: one worker goroutine per shard
// plus the idle sweeper. Shutdown releases them.
func NewTable(cfg TableConfig) *Table {
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 1024
	}
	if cfg.MaxQueuedEvents <= 0 {
		cfg.MaxQueuedEvents = 65536
	}
	if cfg.IdleTTL <= 0 {
		cfg.IdleTTL = 5 * time.Minute
	}
	if cfg.SweepInterval <= 0 {
		cfg.SweepInterval = cfg.IdleTTL / 4
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.DiscardHandler)
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	t := &Table{
		shards:      make([]*shard, cfg.Shards),
		tracker:     expiry.New(cfg.IdleTTL),
		metrics:     cfg.Metrics,
		rec:         cfg.Recorder,
		log:         cfg.Log,
		now:         cfg.Now,
		maxSessions: cfg.MaxSessions,
		maxQueued:   cfg.MaxQueuedEvents,
		retryAfter:  cfg.RetryAfter,
		stop:        make(chan struct{}),
	}
	for i := range t.shards {
		sh := &shard{t: t, sessions: make(map[string]*entry),
			tombs: make(map[string]tombstone), wake: make(chan struct{}, 1)}
		t.shards[i] = sh
		t.wg.Add(1)
		go sh.run()
	}
	t.wg.Add(1)
	go t.sweep(cfg.SweepInterval)
	return t
}

// Len reports open sessions; QueuedEvents reports decoded events
// awaiting application across all sessions. Both back gauges.
func (t *Table) Len() int          { return int(t.open.Load()) }
func (t *Table) QueuedEvents() int { return int(t.queued.Load()) }

// shardFor routes a session ID to its shard.
func (t *Table) shardFor(id string) *shard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return t.shards[h.Sum32()%uint32(len(t.shards))]
}

// Open creates a session from spec and returns its ID, the spec's
// content key, and the normalized spec. traceID correlates the session's
// span and logs (see obs.NewTraceID).
func (t *Table) Open(spec Spec, traceID string) (id, key string, norm Spec, err error) {
	if t.stopping.Load() {
		return "", "", Spec{}, ErrShutdown
	}
	norm, err = spec.Normalized()
	if err != nil {
		return "", "", Spec{}, err
	}
	key, err = norm.Key()
	if err != nil {
		return "", "", Spec{}, err
	}
	// Reserve a slot before building (estimator tables are the real
	// allocation); roll back if over the cap.
	if t.open.Add(1) > int64(t.maxSessions) {
		t.open.Add(-1)
		t.metrics.OpenRejected.Inc()
		return "", "", Spec{}, ErrTableFull
	}
	sess, err := New(norm)
	if err != nil {
		t.open.Add(-1)
		return "", "", Spec{}, err
	}
	// The ID leads with the spec key so equivalent specs are visibly
	// related; the sequence keeps each stream's state private.
	id = fmt.Sprintf("s-%s-%06d", key[:12], t.seq.Add(1))
	e := &entry{id: id, key: key, sess: sess, subs: make(map[chan Scores]struct{})}
	e.span = t.rec.Start(traceID, "session", id, 0)
	e.span.Set("key", key)

	sh := t.shardFor(id)
	sh.mu.Lock()
	sh.sessions[id] = e
	sh.mu.Unlock()
	t.tracker.Touch(id, t.now())
	t.metrics.Opened.Inc()
	t.log.Info("session opened", "session", id, "key", key, "trace", traceID)
	return id, key, norm, nil
}

// Ingest decodes one chunk in the session's stream format and enqueues
// the completed events. It returns how many events the chunk completed
// and the queue depth after the append. A chunk is accepted or rejected
// whole. On any error — *BackpressureError or a decode error — nothing
// was consumed: the binary decoder and the NDJSON partial line stay
// where the previous chunk left them, and the valid events ahead of a
// bad one are not queued. So the client resends the identical bytes
// after backpressure, or corrected bytes after a decode error. The
// router relies on this: its journal records only acknowledged chunks,
// and replaying them must rebuild the owner's exact state.
func (t *Table) Ingest(id string, format Format, chunk []byte) (accepted, queued int, err error) {
	start := time.Now()
	defer func() { t.metrics.IngestDuration.Observe(time.Since(start).Seconds()) }()

	sh := t.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.sessions[id]
	if e == nil {
		return 0, 0, sh.missLocked(id)
	}
	if e.format == "" {
		e.format = format
	} else if e.format != format {
		return 0, 0, &FormatError{Have: e.format, Got: format}
	}

	// Decode fully before committing anything, so a rejected chunk can
	// be rolled back to byte-exact stream state.
	var evs []trace.Event
	switch format {
	case FormatBinary:
		snap := e.dec.Snapshot()
		if err := e.dec.Feed(chunk, func(ev trace.Event) error {
			evs = append(evs, ev)
			return nil
		}); err != nil {
			e.dec.Restore(snap)
			return 0, e.nqueued, err
		}
		if e.nqueued > 0 && e.nqueued+len(evs) > t.maxQueued {
			e.dec.Restore(snap)
			t.metrics.Backpressure.Inc()
			return 0, e.nqueued, &BackpressureError{RetryAfter: t.retryAfter, Queued: e.nqueued, Limit: t.maxQueued}
		}
	case FormatNDJSON:
		var rest []byte
		evs, rest, err = appendNDJSON(nil, e.ndrem, chunk, false)
		if err != nil {
			return 0, e.nqueued, err
		}
		if e.nqueued > 0 && e.nqueued+len(evs) > t.maxQueued {
			t.metrics.Backpressure.Inc()
			return 0, e.nqueued, &BackpressureError{RetryAfter: t.retryAfter, Queued: e.nqueued, Limit: t.maxQueued}
		}
		e.ndrem = append(e.ndrem[:0], rest...)
	default:
		return 0, 0, fmt.Errorf("session: unknown ingest format %q", format)
	}

	if len(evs) > 0 {
		e.queue = append(e.queue, evs)
		e.nqueued += len(evs)
		t.queued.Add(int64(len(evs)))
		t.metrics.Events.Add(uint64(len(evs)))
		sh.markDirtyLocked(e)
	}
	t.tracker.Touch(id, t.now())
	return len(evs), e.nqueued, nil
}

// Scores snapshots a session, reporting its current queue depth, and
// counts as activity for the idle sweep.
func (t *Table) Scores(id string) (Scores, error) {
	sh := t.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.sessions[id]
	if e == nil {
		return Scores{}, sh.missLocked(id)
	}
	t.tracker.Touch(id, t.now())
	return e.snapshotLocked(), nil
}

// Subscribe registers a live-score watcher: the channel carries a
// snapshot after every worker drain (latest-wins — a slow reader skips
// intermediate snapshots, never blocks a worker) and is closed after the
// final snapshot when the session closes. cancel unsubscribes early.
func (t *Table) Subscribe(id string) (<-chan Scores, func(), error) {
	sh := t.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.sessions[id]
	if e == nil {
		return nil, nil, sh.missLocked(id)
	}
	ch := make(chan Scores, 1)
	e.subs[ch] = struct{}{}
	ch <- e.snapshotLocked() // prime with the current state
	cancel := func() {
		sh.mu.Lock()
		if _, ok := e.subs[ch]; ok {
			delete(e.subs, ch)
			close(ch)
		}
		sh.mu.Unlock()
	}
	return ch, cancel, nil
}

// Close removes the session, applies whatever its queue still holds,
// squashes in-flight branches, and returns the final scores. Subscribers
// receive the final snapshot and their channels close.
func (t *Table) Close(id, reason string) (Scores, error) {
	sh := t.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.sessions[id]
	if e == nil {
		return Scores{}, sh.missLocked(id)
	}
	return t.closeEntryLocked(sh, e, reason), nil
}

// closeEntryLocked is the one session teardown path (DELETE, eviction,
// shutdown), with the shard lock held: drain the queue so no
// acknowledged event is lost, settle the final snapshot into every
// subscriber, and leave a tombstone so later requests for the ID get a
// deterministic GoneError carrying the reason.
func (t *Table) closeEntryLocked(sh *shard, e *entry, reason string) Scores {
	delete(sh.sessions, e.id)
	t.tracker.Forget(e.id)
	sh.tombs[e.id] = tombstone{reason: reason, at: t.now()}

	sh.applyLocked(e)
	final := e.sess.Close()
	for ch := range e.subs {
		sendLatest(ch, final)
		close(ch)
	}
	e.subs = nil
	e.span.Set("reason", reason)
	if errMsg := final.Error; errMsg != "" {
		e.span.End(errMsg)
	} else {
		e.span.End("")
	}
	t.open.Add(-1)
	t.metrics.Closed.With(reason).Inc()
	t.log.Info("session closed", "session", e.id, "reason", reason,
		"events", final.Events, "cycles", final.Cycles)
	return final
}

// missLocked maps a missing ID, with the shard lock held, to its
// terminal error: *GoneError while a tombstone remembers the close,
// ErrNotFound for IDs the table never issued (or whose tombstone has
// aged out).
func (sh *shard) missLocked(id string) error {
	if tb, ok := sh.tombs[id]; ok {
		return &GoneError{Reason: tb.reason}
	}
	return ErrNotFound
}

// Shutdown stops the workers and the sweeper, then closes every
// remaining session (reason "shutdown"), draining their queues. The
// table rejects new work afterwards.
func (t *Table) Shutdown() {
	if !t.stopping.CompareAndSwap(false, true) {
		return
	}
	close(t.stop)
	t.wg.Wait()
	for _, sh := range t.shards {
		sh.mu.Lock()
		ids := make([]string, 0, len(sh.sessions))
		for id := range sh.sessions {
			ids = append(ids, id)
		}
		sh.mu.Unlock()
		for _, id := range ids {
			t.Close(id, CloseShutdown)
		}
	}
}

// sweep is the eviction loop: every interval, sessions whose last
// activity is older than the TTL close with reason "evicted".
func (t *Table) sweep(interval time.Duration) {
	defer t.wg.Done()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-ticker.C:
			t.sweepOnce(t.now())
		}
	}
}

// sweepOnce runs one eviction pass. Eviction is two-phase against the
// tracker — Candidates lists without removing, then ExpireIf confirms
// each claim under the candidate's shard lock. Ingest and Scores touch
// the tracker while holding that same shard lock, so a session touched
// after candidacy is observed here as renewed and survives the sweep;
// the single-call Expired API removed keys at listing time and lost
// exactly that interleaving. Expired tombstones purge on the same pass.
func (t *Table) sweepOnce(now time.Time) {
	t.evictExpired(t.tracker.Candidates(now), now)
	for _, sh := range t.shards {
		sh.mu.Lock()
		for id, tb := range sh.tombs {
			if now.Sub(tb.at) >= t.tracker.TTL() {
				delete(sh.tombs, id)
			}
		}
		sh.mu.Unlock()
	}
}

// evictExpired is sweepOnce's claim phase, split out so the
// sweep-vs-touch test can interleave a renewal between candidacy and
// the claim.
func (t *Table) evictExpired(candidates []string, now time.Time) {
	for _, id := range candidates {
		sh := t.shardFor(id)
		sh.mu.Lock()
		e := sh.sessions[id]
		if e == nil || !t.tracker.ExpireIf(id, now) {
			sh.mu.Unlock()
			continue
		}
		t.closeEntryLocked(sh, e, CloseEvicted)
		sh.mu.Unlock()
		t.log.Info("session evicted", "session", id, "idle_ttl", t.tracker.TTL().String())
	}
}

// markDirtyLocked queues the entry for its shard worker and wakes it.
func (sh *shard) markDirtyLocked(e *entry) {
	if !e.inDirty {
		e.inDirty = true
		sh.dirty = append(sh.dirty, e)
	}
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

// run is the shard worker: drain dirty sessions until shutdown.
func (sh *shard) run() {
	defer sh.t.wg.Done()
	for {
		select {
		case <-sh.t.stop:
			return
		case <-sh.wake:
			sh.drain()
		}
	}
}

// drain applies every dirty session's queue and publishes fresh
// snapshots to its subscribers.
func (sh *shard) drain() {
	for {
		sh.mu.Lock()
		if len(sh.dirty) == 0 {
			sh.mu.Unlock()
			return
		}
		e := sh.dirty[0]
		sh.dirty[0] = nil
		sh.dirty = sh.dirty[1:]
		e.inDirty = false
		sh.applyLocked(e)
		if len(e.subs) > 0 {
			sc := e.snapshotLocked()
			for ch := range e.subs {
				sendLatest(ch, sc)
			}
		}
		sh.mu.Unlock()
	}
}

// applyLocked feeds the entry's queued batches through the session. A
// latched stream error drops the rest of the queue — the session stops
// evolving but keeps serving (and reporting the error in) scores.
func (sh *shard) applyLocked(e *entry) {
	if e.nqueued == 0 {
		return
	}
	n := e.nqueued
	for _, batch := range e.queue {
		if err := e.sess.ApplyAll(batch); err != nil {
			break
		}
	}
	e.queue = nil
	e.nqueued = 0
	sh.t.queued.Add(int64(-n))
	sh.t.metrics.ApplyBatch.Observe(float64(n))
}

// snapshotLocked snapshots the entry's session plus its queue depth.
func (e *entry) snapshotLocked() Scores {
	sc := e.sess.Scores()
	sc.Queued = e.nqueued
	return sc
}

// sendLatest delivers latest-wins on a buffered-1 channel: replace a
// stale undelivered snapshot rather than blocking the shard worker.
func sendLatest(ch chan Scores, sc Scores) {
	for {
		select {
		case ch <- sc:
			return
		default:
			select {
			case <-ch:
			default:
			}
		}
	}
}

package server

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"paco/internal/campaign"
	"paco/internal/obs"
	"paco/internal/server/expiry"
)

// Federation — the coordinator side of distributed sharded campaigns.
//
// A campaign's cells are independent deterministic simulations, so
// distributing one is a lease protocol, not a consensus problem: the
// coordinator carves the cell space into shards (campaign.Shard), hands
// each shard to at most one worker at a time under a time-bounded lease,
// and merges posted shard results with campaign.Merge. Determinism does
// the rest of the work a distributed system usually sweats over —
// results for a shard are byte-identical no matter which worker produced
// them or how many times the shard ran, so duplicate executions (lease
// expiry racing a slow worker, a worker retrying a dropped POST, two
// campaigns containing the same shard) are harmless: the first complete
// result for a shard ID settles every live task carrying it, and any
// later post is acknowledged and discarded.
//
// Failure model (documented in DESIGN.md §7):
//
//   - Worker death mid-shard: the lease expires (LeaseTTL) and the shard
//     returns to the head of the pending queue for the next lease
//     request. Expiry is lazy — evaluated when workers ask for work or
//     post results — so an idle federation holds no timers and spawns no
//     goroutines.
//   - Dropped or failed result POST: same as death; the lease expires
//     and the shard re-runs. Re-running is safe by determinism.
//   - Worker-reported infrastructure failure (a lease without a grid, a
//     range outside it): the shard is re-queued and its retry count
//     incremented; past RetryLimit the whole campaign fails rather than
//     loop forever.
//   - Simulation failure inside a cell: travels in the cell's Result.Err
//     like any local campaign — the shard completes, and the merged
//     campaign fails with campaign.FirstError, exactly as a
//     single-process run of the same grid would.

// LeaseRequest is the body a worker POSTs to /v1/shards/lease.
type LeaseRequest struct {
	// Worker names the requester; the coordinator tracks liveness and
	// attribution per name.
	Worker string `json:"worker"`
	// SessionsURL, when set, advertises the base URL of the worker's
	// session-serving HTTP endpoint. Lease polls double as heartbeats,
	// so advertising here keeps the session router's view of live
	// session workers exactly as fresh as the federation's view of
	// lease-eligible workers — one registry, two consumers.
	SessionsURL string `json:"sessions_url,omitempty"`
}

// ShardLease is a granted lease: one shard of one campaign, held by one
// worker until it posts results or the TTL passes.
type ShardLease struct {
	LeaseID string `json:"lease_id"`
	ShardID string `json:"shard_id"`

	// Grid makes the shard self-contained: the worker expands
	// Grid.Jobs() and runs cells [Lo, Hi). The coordinator always sets
	// it; a worker reports a lease without one as an infrastructure
	// failure.
	Grid *campaign.Grid `json:"grid,omitempty"`
	Lo   int            `json:"lo"`
	Hi   int            `json:"hi"`

	// TTLMS is the lease duration in milliseconds; a worker that cannot
	// finish and post within it should assume the shard will be re-leased.
	TTLMS int64 `json:"ttl_ms"`

	// Trace is the submitting job's trace ID, propagated so worker-side
	// spans and logs correlate with the coordinator's; it also rides the
	// X-Paco-Trace response header. Span is the coordinator's lease span
	// ID — the parent for the worker's execution spans, completing the
	// cross-process job → lease → execute → cell chain.
	Trace string `json:"trace,omitempty"`
	Span  uint64 `json:"span,omitempty"`
}

// ShardRenewal is the body a worker POSTs to /v1/shards/{id}/renew
// while executing a shard, restarting the lease clock. Workers renew at
// TTL/3, so an expired lease means a dead (or partitioned) worker, not
// a slow shard.
type ShardRenewal struct {
	LeaseID string `json:"lease_id"`
	Worker  string `json:"worker"`
}

// ShardResultPost is the body a worker POSTs to /v1/shards/{id}/result.
// Results non-nil (with exactly Hi-Lo cells, globally indexed) completes
// the shard; Results nil with Error set reports an infrastructure
// failure and re-queues it.
type ShardResultPost struct {
	LeaseID string            `json:"lease_id"`
	Worker  string            `json:"worker"`
	Error   string            `json:"error,omitempty"`
	Results []campaign.Result `json:"results,omitempty"`
}

// shardTask is one shard awaiting execution for one campaign. Settled
// tasks (completed, failed, withdrawn) set done and are skipped lazily
// when the pending queue reaches them.
type shardTask struct {
	id      string // wire shard ID: the shard's content address
	dist    *distCampaign
	ordinal int // position in the campaign's shard plan
	lo, hi  int

	done    bool
	leaseID string // nonempty while leased
	worker  string
	retries int

	// span covers the current lease from grant to settlement. Expiry or
	// a reported failure ends it with the retry cause; the next lease
	// opens a fresh one, so each attempt is its own flight-recorder
	// entry. Zero (disabled) while unleased.
	span obs.Span
}

// distCampaign is one distributed campaign in flight: the coordinator
// side of a distribute call waiting for its shards.
type distCampaign struct {
	grid      *campaign.Grid
	trace     string // correlates the campaign's spans and logs
	parent    uint64 // span the campaign's lease spans parent to
	remaining int
	pieces    [][]campaign.Result // by shard ordinal
	err       error
	done      chan struct{}
	closed    bool // done has been closed (settled or failed)
	onShard   func(cellsDone int, shardID string)
	cellsDone int
}

// finishShard and fail run under the federation lock (or, for cached
// shards, inside distribute's registration critical section), so closed
// needs no atomics.
func (d *distCampaign) finishShard(ordinal int, shardID string, results []campaign.Result) {
	if d.closed {
		return
	}
	d.pieces[ordinal] = results
	d.cellsDone += len(results)
	d.remaining--
	if d.onShard != nil {
		d.onShard(d.cellsDone, shardID)
	}
	if d.remaining == 0 {
		d.closed = true
		close(d.done)
	}
}

func (d *distCampaign) fail(err error) {
	if d.closed {
		return
	}
	d.closed = true
	d.err = err
	close(d.done)
}

// workerState tracks one worker's liveness and throughput, keyed by the
// name it leases under. Every lease request and result post refreshes
// lastSeen.
type workerState struct {
	lastSeen    time.Time
	leased      uint64
	completed   uint64
	sessionsURL string // session endpoint advertised in lease polls ("" = none)
}

// federation is the coordinator state machine. All fields behind mu; the
// HTTP handlers, distribute, and the metrics scrape are the only
// entrances.
type federation struct {
	// leaseClock is the shared lazy-expiry tracker (internal/server/expiry),
	// keyed by lease ID; the session table's idle sweeper uses the same
	// type. Touched on lease and renew, forgotten on settlement, drained in
	// expireLocked. Mutated only under mu so the leases map never disagrees
	// with it.
	leaseClock *expiry.Tracker
	liveness   time.Duration
	retryLimit int
	cache      *Cache
	obs        *serverObs

	mu        sync.Mutex
	pending   []*shardTask            // FIFO; expired re-leases jump the queue
	tasks     map[string][]*shardTask // shard id -> live tasks (several campaigns may carry one shard)
	leases    map[string]*shardTask   // lease id -> leased task
	workers   map[string]*workerState
	nextLease uint64

	retriesTotal    uint64
	shardsCompleted uint64
}

func newFederation(ttl, liveness time.Duration, retryLimit int, cache *Cache, o *serverObs) *federation {
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	if liveness <= 0 {
		liveness = 15 * time.Second
	}
	if retryLimit <= 0 {
		retryLimit = 3
	}
	return &federation{
		leaseClock: expiry.New(ttl),
		liveness:   liveness,
		retryLimit: retryLimit,
		cache:      cache,
		obs:        o,
		tasks:      make(map[string][]*shardTask),
		leases:     make(map[string]*shardTask),
		workers:    make(map[string]*workerState),
	}
}

// shardCacheKey is the content address a completed grid shard's results
// are stored under. Shard IDs are themselves content addresses, so this
// is a pure function of the work.
func shardCacheKey(shardID string) string {
	return Key([]byte("shard"), []byte(shardID))
}

// distribute runs a normalized grid split into up to `shards` ranges
// across the federation and returns the merged, globally ordered
// results. Each shard flows through the content-addressed result cache:
// cached shards complete without ever being leased, and completed
// shards are stored for the next sweep that contains them.
//
// The call blocks until every shard completes, a shard exhausts its
// retries, or ctx is cancelled (remaining shards are withdrawn).
//
// trace correlates the campaign's spans and logs (see obs.NewTraceID);
// parent, when nonzero, is the span every shard lease parents to.
func (f *federation) distribute(ctx context.Context, trace string, parent uint64, grid *campaign.Grid, shards int, onShard func(cellsDone int, shardID string)) ([]campaign.Result, error) {
	if grid.Size() == 0 {
		return nil, nil
	}
	type planned struct {
		id     string
		lo, hi int
		cached []campaign.Result
	}
	gridShards, err := grid.Shards(shards)
	if err != nil {
		return nil, err
	}
	plan := make([]planned, 0, len(gridShards))
	for _, sh := range gridShards {
		p := planned{id: sh.ID(), lo: sh.Lo, hi: sh.Hi}
		if data, ok := f.cache.Lookup(shardCacheKey(p.id)); ok {
			var results []campaign.Result
			if err := json.Unmarshal(data, &results); err == nil && len(results) == p.hi-p.lo {
				p.cached = results
			}
		}
		// An entry that does not decode counts as the miss it is.
		f.cache.Count(p.cached != nil)
		f.obs.lookup("shard", p.cached != nil)
		plan = append(plan, p)
	}

	d := &distCampaign{
		grid:      grid,
		trace:     trace,
		parent:    parent,
		remaining: len(plan),
		pieces:    make([][]campaign.Result, len(plan)),
		done:      make(chan struct{}),
		onShard:   onShard,
	}

	f.mu.Lock()
	for i, p := range plan {
		if p.cached != nil {
			// Cache-settled shards never lease, but still leave a span so
			// the flight recorder accounts for every shard of the campaign.
			sp := f.obs.rec.Start(trace, "shard.cached", short(p.id), parent)
			d.finishShard(i, p.id, p.cached)
			sp.End("")
			continue
		}
		t := &shardTask{id: p.id, dist: d, ordinal: i, lo: p.lo, hi: p.hi}
		f.tasks[p.id] = append(f.tasks[p.id], t)
		f.pending = append(f.pending, t)
	}
	f.mu.Unlock()

	select {
	case <-d.done:
		if d.err != nil {
			return nil, d.err
		}
		return campaign.Merge(d.pieces...), nil
	case <-ctx.Done():
		f.withdraw(d)
		return nil, ctx.Err()
	}
}

// withdraw settles a cancelled campaign's remaining shards so workers
// stop receiving its leases; in-flight leases resolve to "unknown shard"
// when posted.
func (f *federation) withdraw(d *distCampaign) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, ts := range f.tasks {
		for _, t := range ts {
			if t.dist == d {
				f.settleTaskLocked(t)
			}
		}
	}
}

// settleTaskLocked marks one task done and drops it from the live
// tables. The pending queue is cleaned lazily: the lease pop skips done
// tasks.
func (f *federation) settleTaskLocked(t *shardTask) {
	if t.done {
		return
	}
	t.done = true
	// Completion and requeue paths end the lease span with their own
	// verdict first; a span still open here means the task was withdrawn
	// (campaign cancelled or failed elsewhere).
	t.span.End("withdrawn")
	if t.leaseID != "" {
		delete(f.leases, t.leaseID)
		f.leaseClock.Forget(t.leaseID)
		t.leaseID = ""
	}
	// Fresh slice, never in-place: callers iterate snapshots of the old
	// task list while settling.
	live := make([]*shardTask, 0, len(f.tasks[t.id]))
	for _, other := range f.tasks[t.id] {
		if other != t {
			live = append(live, other)
		}
	}
	if len(live) == 0 {
		delete(f.tasks, t.id)
	} else {
		f.tasks[t.id] = live
	}
}

// failCampaignLocked fails a campaign and settles its remaining shards.
func (f *federation) failCampaignLocked(d *distCampaign, err error) {
	for _, ts := range f.tasks {
		for _, t := range ts {
			if t.dist == d {
				f.settleTaskLocked(t)
			}
		}
	}
	d.fail(err)
}

// canonicalWorker is the one place empty worker names are normalized,
// so liveness records, lease attribution, and logs all agree.
func canonicalWorker(name string) string {
	if name == "" {
		return "anonymous"
	}
	return name
}

// touchWorkerLocked refreshes a worker's liveness record. name must
// already be canonical.
func (f *federation) touchWorkerLocked(name string, now time.Time) *workerState {
	w := f.workers[name]
	if w == nil {
		w = &workerState{}
		f.workers[name] = w
	}
	w.lastSeen = now
	return w
}

// expireLocked returns expired leases to the head of the pending queue.
// Lazy expiry: called from the lease and result paths, so a shard held
// by a dead worker is re-leased the next time any live worker checks in.
func (f *federation) expireLocked(now time.Time) {
	var expired []*shardTask
	for _, id := range f.leaseClock.Expired(now) {
		t := f.leases[id]
		if t == nil {
			continue // settled concurrently with the sweep; Forget raced
		}
		delete(f.leases, id)
		t.leaseID = ""
		t.retries++
		f.retriesTotal++
		t.span.Set("retry_cause", "lease expired")
		t.span.End("lease expired")
		f.obs.log.Warn("lease expired; re-queueing shard",
			"shard", short(t.id), "worker", t.worker, "retry", t.retries, "trace", t.dist.trace)
		if t.retries > f.retryLimit {
			f.failCampaignLocked(t.dist, fmt.Errorf("server: shard %s exceeded %d retries (last worker %s)",
				short(t.id), f.retryLimit, t.worker))
			continue
		}
		expired = append(expired, t)
	}
	if len(expired) > 0 {
		// Expired shards jump the queue: they have already waited a full
		// TTL.
		f.pending = append(expired, f.pending...)
	}
}

// short abbreviates a shard or cache key for logs.
func short(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}

// lease grants the next pending shard to the requesting worker, or
// reports none available. Beyond granting shards, the call is the
// worker's heartbeat: it refreshes liveness and records the session
// endpoint the worker advertises (if any) for the session router.
func (f *federation) lease(req LeaseRequest) (ShardLease, bool) {
	workerName := canonicalWorker(req.Worker)
	now := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	w := f.touchWorkerLocked(workerName, now)
	if req.SessionsURL != "" {
		w.sessionsURL = req.SessionsURL
	}
	f.expireLocked(now)
	for len(f.pending) > 0 {
		t := f.pending[0]
		f.pending[0] = nil
		f.pending = f.pending[1:]
		if t.done || t.leaseID != "" {
			continue // settled or re-leased while queued twice
		}
		f.nextLease++
		t.leaseID = fmt.Sprintf("l-%06d", f.nextLease)
		t.worker = workerName
		f.leases[t.leaseID] = t
		f.leaseClock.Touch(t.leaseID, now)
		w.leased++
		t.span = f.obs.rec.Start(t.dist.trace, "shard.lease", short(t.id), t.dist.parent)
		t.span.Set("worker", workerName)
		t.span.Set("lease", t.leaseID)
		// Cell range, for campaign-report worker attribution when the
		// executing worker's spans land in another process's recorder.
		t.span.Set("lo", strconv.Itoa(t.lo))
		t.span.Set("hi", strconv.Itoa(t.hi))
		return ShardLease{
			LeaseID: t.leaseID,
			ShardID: t.id,
			Grid:    t.dist.grid,
			Lo:      t.lo,
			Hi:      t.hi,
			TTLMS:   f.leaseClock.TTL().Milliseconds(),
			Trace:   t.dist.trace,
			Span:    t.span.ID(),
		}, true
	}
	return ShardLease{}, false
}

// result records a worker's post for a shard. The returned status is the
// HTTP status the handler relays:
//
//	200 — accepted (completion or re-queue of a reported failure)
//	410 — unknown shard (completed, withdrawn, or never existed); benign
//	      for workers, and distinct from a routing 404 so a worker never
//	      mistakes a broken URL for someone else's completion
//	422 — malformed post (wrong cell count); treated as failure, re-queued
//
// renew restarts the lease clock for a shard a worker is still
// executing. 200 on success; 410 when the lease is no longer held
// (expired and re-leased, or the shard completed) — benign for the
// worker, which keeps executing and lets the result post sort it out.
func (f *federation) renew(shardID string, ren ShardRenewal) (int, string) {
	now := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	f.touchWorkerLocked(canonicalWorker(ren.Worker), now)
	t := f.leases[ren.LeaseID]
	if t == nil || t.id != shardID || t.done {
		return 410, "lease no longer held"
	}
	f.leaseClock.Touch(ren.LeaseID, now)
	// Each renewal is a point event in the lease's lifecycle: a zero-
	// length child span of the lease span, so /debug/flight shows the
	// full lease → renew* → result chain.
	sp := f.obs.rec.Start(t.dist.trace, "shard.renew", short(t.id), t.span.ID())
	sp.Set("worker", canonicalWorker(ren.Worker))
	sp.End("")
	return 200, "renewed"
}

func (f *federation) result(shardID string, post ShardResultPost) (int, string) {
	worker := canonicalWorker(post.Worker)
	now := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	w := f.touchWorkerLocked(worker, now)
	ts := f.tasks[shardID]
	if len(ts) == 0 {
		// Determinism makes duplicates harmless: the shard was completed
		// by someone else (or its campaign withdrawn), so the bytes in
		// this post are either identical to what was recorded or moot.
		return 410, "unknown shard (already completed or withdrawn)"
	}
	want := ts[0].hi - ts[0].lo

	requeue := func(t *shardTask, reason string) {
		if t.done {
			return // settled by an earlier failure in this same post
		}
		if t.leaseID != "" {
			delete(f.leases, t.leaseID)
			f.leaseClock.Forget(t.leaseID)
			t.leaseID = ""
		}
		t.retries++
		f.retriesTotal++
		t.span.Set("retry_cause", reason)
		t.span.End(reason)
		f.obs.log.Warn("shard failed; re-queueing",
			"shard", short(t.id), "worker", worker, "reason", reason,
			"retry", t.retries, "trace", t.dist.trace)
		if t.retries > f.retryLimit {
			f.failCampaignLocked(t.dist, fmt.Errorf("server: shard %s exceeded %d retries: %s",
				short(t.id), f.retryLimit, reason))
			return
		}
		f.pending = append([]*shardTask{t}, f.pending...)
	}

	if post.Results == nil {
		reason := post.Error
		if reason == "" {
			reason = "empty result post"
		}
		for _, t := range ts {
			requeue(t, reason)
		}
		return 200, "shard re-queued: " + reason
	}
	if len(post.Results) != want {
		for _, t := range ts {
			requeue(t, fmt.Sprintf("posted %d results for a %d-cell shard", len(post.Results), want))
		}
		return 422, "result count does not match shard range"
	}

	// Complete: the first full result settles every live task carrying
	// this shard, regardless of which lease it came from — an
	// expired-then-finished worker's bytes are identical to the re-leased
	// worker's by determinism.
	w.completed++
	f.shardsCompleted++
	if campaign.FirstError(post.Results) == nil {
		if data, err := json.Marshal(post.Results); err == nil {
			f.cache.Put(shardCacheKey(shardID), data)
		}
	}
	for _, t := range ts {
		// End the lease span before settling so the settle catch-all
		// cannot mislabel a completed shard as withdrawn. A task leased
		// elsewhere (or never leased) carries a span for its own lease
		// attempt; ending it with the completing worker records who
		// actually delivered the bytes.
		t.span.Set("completed_by", worker)
		t.span.End("")
		f.settleTaskLocked(t)
		t.dist.finishShard(t.ordinal, shardID, post.Results)
	}
	return 200, "ok"
}

// sessionEndpoint is one live worker's advertised session-serving
// endpoint, as seen by the session router.
type sessionEndpoint struct {
	name string
	url  string
}

// sessionEndpoints returns the live workers that advertise a session
// endpoint, sorted by name so rendezvous hashing sees a stable universe.
// Liveness is the same lastSeen-within-liveness rule stats() applies:
// lease polls are heartbeats, so a worker that stops polling drops out
// of the routing universe within one liveness window.
func (f *federation) sessionEndpoints() []sessionEndpoint {
	now := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	var eps []sessionEndpoint
	for name, w := range f.workers {
		if w.sessionsURL == "" || now.Sub(w.lastSeen) > f.liveness {
			continue
		}
		eps = append(eps, sessionEndpoint{name: name, url: w.sessionsURL})
	}
	sort.Slice(eps, func(i, j int) bool { return eps[i].name < eps[j].name })
	return eps
}

// WorkerStat is one worker's federation record, exported by /metrics and
// FederationStats.
type WorkerStat struct {
	Name         string
	LastSeenAge  time.Duration
	Leased       uint64
	Completed    uint64
	Live         bool
	ActiveLeases int
}

// FederationStats is a point-in-time view of the coordinator.
type FederationStats struct {
	ShardsPending   int
	ShardsLeased    int
	ShardsCompleted uint64
	Retries         uint64
	OldestLeaseAge  time.Duration
	WorkersLive     int
	Workers         []WorkerStat
}

// stats snapshots the federation without mutating it (expiry stays on
// the lease/result paths so scrapes are read-only).
func (f *federation) stats() FederationStats {
	now := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FederationStats{
		ShardsLeased:    len(f.leases),
		ShardsCompleted: f.shardsCompleted,
		Retries:         f.retriesTotal,
	}
	for _, t := range f.pending {
		if !t.done && t.leaseID == "" {
			st.ShardsPending++
		}
	}
	st.OldestLeaseAge = f.leaseClock.Oldest(now)
	active := map[string]int{}
	for _, t := range f.leases {
		active[t.worker]++
	}
	names := make([]string, 0, len(f.workers))
	for name := range f.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w := f.workers[name]
		ws := WorkerStat{
			Name:         name,
			LastSeenAge:  now.Sub(w.lastSeen),
			Leased:       w.leased,
			Completed:    w.completed,
			Live:         now.Sub(w.lastSeen) <= f.liveness,
			ActiveLeases: active[name],
		}
		if ws.Live {
			st.WorkersLive++
		}
		st.Workers = append(st.Workers, ws)
	}
	return st
}

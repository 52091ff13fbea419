// Package server is paco's simulation-as-a-service layer: an HTTP/JSON
// front end (stdlib net/http only) over the campaign engine. Clients
// POST declarative job specs (a campaign.Grid — one run or a whole
// sweep); the server executes them on a bounded queue and configurable
// worker pool, streams progress over Server-Sent Events, and serves
// every paper experiment at /v1/experiments/{name} byte-identical to the
// CLI output.
//
// Because every simulation is deterministic given its spec, results are
// content-addressed: the SHA-256 of the canonicalized spec names the
// result, identical requests are pure cache hits (LRU byte-budget cache,
// optionally persisted to disk), and concurrent identical submissions
// single-flight into one simulation. /metrics exports the operational
// counters — queue depth, cache hit/miss, jobs in flight, simulated
// kcycles/sec — in Prometheus text format.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"paco/internal/campaign"
	"paco/internal/experiments"
	"paco/internal/obs"
	"paco/internal/obs/tsdb"
	"paco/internal/perf"
	"paco/internal/session"
	"paco/internal/version"
)

// Config sizes a Server. The zero value selects sensible defaults.
type Config struct {
	// JobWorkers bounds campaigns executing concurrently (default 2).
	JobWorkers int
	// SimWorkers is the campaign worker-pool size each job runs with
	// (default runtime.GOMAXPROCS(0)).
	SimWorkers int
	// BatchK is the batched lockstep width for locally executed
	// campaigns: cells sharing one instruction stream run up to BatchK
	// per batch (results stay byte-identical to unbatched at any K).
	// 0 selects the default of 8; 1 disables batching.
	BatchK int
	// QueueSize bounds jobs waiting to execute (default 64); submissions
	// beyond it are rejected with 503.
	QueueSize int
	// MaxCells bounds one submission's grid expansion (default 4096).
	MaxCells int
	// MaxJobs bounds retained job records (default 1024): once exceeded,
	// the oldest settled jobs are forgotten — their results stay
	// reachable through the content-addressed cache, only the job id
	// expires. Queued and running jobs are never evicted.
	MaxJobs int

	// CacheBytes is the content-addressed cache budget (default 64 MiB);
	// CacheDir, when nonempty, persists cache entries across restarts.
	CacheBytes int64
	CacheDir   string

	// Shards, when >= 1, turns the server into a federation coordinator:
	// each submitted grid is split into up to Shards content-addressed
	// shards (campaign.Grid.Shards) executed by remote workers leasing
	// through /v1/shards/lease, and the merged report is byte-identical
	// to a single-process run. Shards == 1 still federates — the whole
	// sweep goes to one worker — so a single-worker deployment behaves
	// as configured; 0 executes locally as before.
	Shards int

	// LeaseTTL bounds how long a worker may hold a shard before the
	// coordinator re-leases it (default 30s). WorkerLiveness is the
	// check-in window after which /metrics stops counting a worker as
	// live (default 15s). ShardRetryLimit caps re-lease attempts per
	// shard before the whole campaign fails (default 3).
	LeaseTTL        time.Duration
	WorkerLiveness  time.Duration
	ShardRetryLimit int

	// SessionShards, SessionMaxOpen, SessionQueueEvents, SessionTTL, and
	// SessionSweep size the live estimator-session table behind
	// /v1/sessions (zero values select the session package defaults:
	// 8 shards, 1024 sessions, 65536 queued events per session, 5m idle
	// TTL, sweep every TTL/4).
	SessionShards      int
	SessionMaxOpen     int
	SessionQueueEvents int
	SessionTTL         time.Duration
	SessionSweep       time.Duration

	// RouteSessions turns this server into a session-routing
	// coordinator: /v1/sessions requests are rendezvous-hashed across
	// the federation workers that advertise a session endpoint in their
	// lease polls, proxied to the owning worker, and journaled so a
	// worker death mid-session fails over to a survivor by replaying the
	// journal (DESIGN.md §6b). Such a coordinator builds no local
	// session table: of the Session* fields only SessionTTL and
	// SessionSweep apply (to routed sessions), and the paco_session_open
	// and paco_session_queued_events gauges read zero. Requires workers
	// started with a session endpoint (paco-serve -sessions-addr); with
	// no live endpoints, session opens answer 503.
	RouteSessions bool

	// Experiments scales the /v1/experiments reports (nil selects
	// experiments.Default(), the scale cmd/paco-repro runs at).
	Experiments *experiments.Config

	// Log receives structured operational messages (nil discards them).
	// Every job-lifecycle record carries the job's trace ID.
	Log *slog.Logger

	// LogLevel, when non-nil, is the LevelVar the Log handler filters
	// by — exposing it here enables runtime adjustment through
	// GET/PUT /debug/loglevel without restarting the process.
	LogLevel *slog.LevelVar

	// SampleInterval is the time-series store's sampling period for
	// GET /v1/timeseries and the /debug/dash sparklines (0 selects 1s;
	// negative disables sampling — the endpoints still answer, empty).
	SampleInterval time.Duration

	// FlightSpans caps how many finished spans the flight recorder
	// behind GET /debug/flight retains (0 selects 4096; negative
	// disables span recording entirely).
	FlightSpans int

	// EnablePprof mounts net/http/pprof at /debug/pprof/ on the
	// server's mux. Off by default: profiles expose internals and cost
	// CPU, so production deployments opt in explicitly.
	EnablePprof bool
}

// Server executes simulation jobs behind an HTTP API. Construct with
// New, install Handler in an http.Server, call Start to launch the
// worker pool and Close to drain it.
type Server struct {
	cfg      Config
	expCfg   experiments.Config
	cache    *Cache
	fed      *federation
	sessions *session.Table // nil on a routing coordinator
	router   *sessionRouter // non-nil iff cfg.RouteSessions
	backend  sessionBackend // serves /v1/sessions: the table or the router
	mux      *http.ServeMux
	obs      *serverObs

	nextCampaign atomic.Uint64 // Distribute campaign IDs

	queue chan *job

	mu       sync.Mutex
	closed   bool
	jobs     map[string]*job
	jobOrder []string        // job ids in creation order, for MaxJobs eviction
	inflight map[string]*job // content key -> executing/queued job
	nextID   uint64

	// expSem bounds concurrently executing experiment reports so the
	// GET /v1/experiments path cannot bypass the worker-pool admission
	// bounds.
	expSem chan struct{}

	// Experiment report single-flight.
	expMu      sync.Mutex
	expFlights map[string]*expFlight

	simsRun    atomic.Uint64 // campaigns actually simulated
	cellsRun   atomic.Uint64 // campaign cells simulated
	jobsDone   atomic.Uint64
	jobsFailed atomic.Uint64
	running    atomic.Int64 // jobs executing right now

	sampler perf.Sampler
	started time.Time
	wg      sync.WaitGroup

	ctx    context.Context
	cancel context.CancelFunc
}

type expFlight struct {
	done chan struct{}
	data []byte
	err  error
}

// New builds a Server; Start must be called before submissions execute.
func New(cfg Config) (*Server, error) {
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = 2
	}
	if cfg.SimWorkers <= 0 {
		cfg.SimWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.BatchK <= 0 {
		cfg.BatchK = campaign.DefaultBatchK
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 64
	}
	if cfg.MaxCells <= 0 {
		cfg.MaxCells = 4096
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 1024
	}
	cache, err := NewCache(cfg.CacheBytes, cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	expCfg := experiments.Default()
	if cfg.Experiments != nil {
		expCfg = *cfg.Experiments
	}
	s := &Server{
		cfg:        cfg,
		expCfg:     expCfg,
		cache:      cache,
		queue:      make(chan *job, cfg.QueueSize),
		jobs:       make(map[string]*job),
		inflight:   make(map[string]*job),
		expFlights: make(map[string]*expFlight),
		expSem:     make(chan struct{}, cfg.JobWorkers),
		started:    time.Now(),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.obs = newServerObs(s, cfg.Log, cfg.FlightSpans)
	s.obs.level = cfg.LogLevel
	if cfg.SampleInterval >= 0 {
		s.obs.ts = tsdb.New(tsdb.Config{Registry: s.obs.reg, Interval: cfg.SampleInterval})
	}
	s.fed = newFederation(cfg.LeaseTTL, cfg.WorkerLiveness, cfg.ShardRetryLimit, cache, s.obs)
	if cfg.RouteSessions {
		s.router = newSessionRouter(s.fed, s.obs, cfg.SessionTTL, cfg.SessionSweep)
		s.backend = s.router
	} else {
		s.sessions = session.NewTable(session.TableConfig{
			Shards:          cfg.SessionShards,
			MaxSessions:     cfg.SessionMaxOpen,
			MaxQueuedEvents: cfg.SessionQueueEvents,
			IdleTTL:         cfg.SessionTTL,
			SweepInterval:   cfg.SessionSweep,
			Metrics:         s.obs.sessionMetrics,
			Recorder:        s.obs.rec,
			Log:             s.obs.log,
		})
		s.backend = localSessions{s.sessions}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleJobResults)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /v1/shards/lease", s.handleShardLease)
	mux.HandleFunc("POST /v1/shards/{id}/renew", s.handleShardRenew)
	mux.HandleFunc("POST /v1/shards/{id}/result", s.handleShardResult)
	mux.HandleFunc("POST /v1/sessions", s.handleSessionOpen)
	mux.HandleFunc("POST /v1/sessions/{id}/events", s.handleSessionEvents)
	mux.HandleFunc("GET /v1/sessions/{id}/scores", s.handleSessionScores)
	mux.HandleFunc("GET /v1/sessions/{id}/live", s.handleSessionLive)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionClose)
	mux.HandleFunc("GET /v1/experiments/{name}", s.handleExperiment)
	mux.HandleFunc("GET /v1/timeseries", s.handleTimeseries)
	mux.HandleFunc("GET /v1/campaigns/{id}/report", s.handleCampaignReport)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.registerDebug(mux)
	s.mux = mux
	return s, nil
}

// Start launches the job worker pool and the metrics sampler.
func (s *Server) Start() {
	s.wg.Add(s.cfg.JobWorkers)
	for i := 0; i < s.cfg.JobWorkers; i++ {
		go s.worker()
	}
	if s.router != nil {
		s.router.start()
	}
	if s.obs.ts != nil {
		s.obs.ts.Start()
	}
}

// Close stops accepting submissions, cancels in-flight campaigns (their
// executing cells finish, unstarted cells are skipped), fails jobs still
// waiting in the queue, waits for the worker pool to drain, and shuts
// down the session backend (a table's remaining sessions close with
// their queues applied; a router stops its sweeper).
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
	if s.router != nil {
		s.router.shutdown()
	} else {
		s.sessions.Shutdown()
	}
	if s.obs.ts != nil {
		s.obs.ts.Close()
	}
	// Jobs a worker never picked up were drained by the closed-channel
	// range in worker() and marked failed by runJob's closed check.
}

// Handler returns the server's HTTP handler: the API mux wrapped with
// the build stamp header and per-route request accounting (duration
// histogram and status-code counter, labeled by the mux route pattern
// so cardinality stays bounded by the route table, not by client URLs).
func (s *Server) Handler() http.Handler {
	stamp := version.Get().String()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Paco-Version", stamp)
		route := "other"
		if _, pattern := s.mux.Handler(r); pattern != "" {
			route = pattern
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		s.mux.ServeHTTP(sw, r)
		s.obs.httpDuration.With(route).Observe(time.Since(start).Seconds())
		s.obs.httpRequests.With(route, strconv.Itoa(sw.code)).Inc()
	})
}

// statusWriter captures the response status for the request counter. It
// implements http.Flusher unconditionally (flushing is a no-op when the
// underlying writer cannot) so the SSE handler's Flusher assertion keeps
// working through the middleware, and Unwrap for ResponseController.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.code = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Flush() {
	if fl, ok := sw.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// SimulationsRun reports how many campaigns were actually simulated (as
// opposed to answered from the cache) — the counter the single-flight
// and cache tests assert on.
func (s *Server) SimulationsRun() uint64 { return s.simsRun.Load() }

// CacheStats exposes the content-addressed cache counters.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// cachedPayload is what the cache stores per key: everything durable
// about a completed job (identity fields like job id and timestamps stay
// out, so the bytes are a pure function of the spec).
type cachedPayload struct {
	Spec    campaign.Grid     `json:"spec"`
	Results []campaign.Result `json:"results"`
	Summary campaign.Summary  `json:"summary"`
}

// errorJSON writes a JSON error body with the given status.
func errorJSON(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// readBody reads the request body, at most limit bytes. On failure it
// answers "label: err" — 413 past the limit, 400 otherwise — and
// returns false.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, label string) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		errorJSON(w, status, "%s: %v", label, err)
		return nil, false
	}
	return body, true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// handleSubmit is POST /v1/jobs: parse the spec, canonicalize and hash
// it, and answer from the cache, an in-flight duplicate, or a fresh
// enqueue.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, 1<<20, "reading body")
	if !ok {
		return
	}
	var grid campaign.Grid
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&grid); err != nil {
		errorJSON(w, http.StatusBadRequest, "parsing job spec: %v", err)
		return
	}
	grid, err := grid.Normalized()
	if err != nil {
		errorJSON(w, http.StatusBadRequest, "%v", err)
		return
	}
	cells := grid.Size()
	if cells > s.cfg.MaxCells {
		errorJSON(w, http.StatusBadRequest,
			"grid expands to %d cells, server limit is %d", cells, s.cfg.MaxCells)
		return
	}
	key, err := specKey(grid)
	if err != nil {
		errorJSON(w, http.StatusInternalServerError, "%v", err)
		return
	}

	// The job's trace ID correlates everything the submission causes —
	// spans, logs, shard leases on remote workers — across processes.
	// Clients may supply their own via the X-Paco-Trace header; otherwise
	// the server mints one. Either way the authoritative ID (an inflight
	// duplicate keeps the first submission's) echoes back in the response
	// header and body.
	trace := r.Header.Get(obs.TraceHeader)
	if trace == "" {
		trace = obs.NewTraceID()
	}

	j, outcome, err := s.submit(grid, key, cells, trace)
	if err != nil {
		errorJSON(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	status := http.StatusAccepted
	if outcome == "hit" {
		status = http.StatusOK
	}
	st := j.status(outcome == "hit")
	if outcome == "inflight" {
		// Single-flighted onto an earlier submission: report where that
		// job stands, but the cache verdict for this request.
		st.Cache = "inflight"
	}
	w.Header().Set(obs.TraceHeader, st.Trace)
	writeJSON(w, status, st)
}

// specKey computes the content address of a normalized grid: SHA-256
// over the canonical JSON of the spec, domain-separated from other key
// kinds. Normalization plus canonical JSON make the key insensitive to
// field order, whitespace, number spelling, and spelled-out defaults.
func specKey(grid campaign.Grid) (string, error) {
	raw, err := json.Marshal(grid)
	if err != nil {
		return "", err
	}
	canon, err := CanonicalJSON(raw)
	if err != nil {
		return "", err
	}
	return Key([]byte("job"), canon), nil
}

// submit implements the content-addressed admission path. Exactly one of
// the three outcomes happens under the lock:
//
//   - "hit": the canonical spec is in the cache — a pre-completed job
//     record is created from the stored bytes, nothing is enqueued.
//   - "inflight": an identical spec is already queued or running — the
//     submission single-flights onto that job.
//   - "miss": a fresh job is enqueued.
func (s *Server) submit(grid campaign.Grid, key string, cells int, trace string) (*job, string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, "", errors.New("server is shutting down")
	}
	data, cached := s.cache.Get(key)
	s.obs.lookup("job", cached)
	if cached {
		var payload cachedPayload
		if err := json.Unmarshal(data, &payload); err == nil {
			j := newJob(s.nextIDLocked(), key, grid, cells, trace)
			j.completeFromCache(payload.Results, payload.Summary)
			s.registerJobLocked(j)
			return j, "hit", nil
		}
		// Undecodable cache entry (e.g. foreign file in the persistence
		// dir that happened to parse as a key): fall through to simulate.
		s.obs.log.Warn("cache entry undecodable; re-simulating", "key", short(key))
	}
	if exist, ok := s.inflight[key]; ok {
		return exist, "inflight", nil
	}
	j := newJob(s.nextIDLocked(), key, grid, cells, trace)
	select {
	case s.queue <- j:
	default:
		return nil, "", fmt.Errorf("job queue full (%d waiting)", s.cfg.QueueSize)
	}
	s.registerJobLocked(j)
	s.inflight[key] = j
	return j, "miss", nil
}

func (s *Server) nextIDLocked() string {
	s.nextID++
	return fmt.Sprintf("j-%06d", s.nextID)
}

// registerJobLocked records a job and bounds the retained records:
// beyond MaxJobs, the oldest settled jobs are forgotten (their results
// remain reachable through the content-addressed cache). Queued and
// running jobs are kept regardless — they are bounded by the queue and
// worker pool.
func (s *Server) registerJobLocked(j *job) {
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j.id)
	if len(s.jobs) <= s.cfg.MaxJobs {
		return
	}
	kept := s.jobOrder[:0]
	for _, id := range s.jobOrder {
		old := s.jobs[id]
		if old == nil {
			continue
		}
		if len(s.jobs) > s.cfg.MaxJobs && old.terminal() {
			delete(s.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	s.jobOrder = kept
}

// worker executes queued jobs until the queue closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job's campaign, records throughput, and stores
// the result under its content address.
func (s *Server) runJob(j *job) {
	defer func() {
		s.mu.Lock()
		delete(s.inflight, j.key)
		s.mu.Unlock()
	}()
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		j.fail("server shut down before the job ran", nil)
		s.jobsFailed.Add(1)
		return
	}
	s.running.Add(1)
	defer s.running.Add(-1)

	// The job span roots this job's causal chain in the flight recorder:
	// cell spans (local execution) or shard lease/execute spans
	// (federated) all parent back to it under the job's trace ID.
	span := s.obs.rec.Start(j.trace, "job", j.id, 0)
	span.Set("cells", strconv.Itoa(j.cells))
	span.Set("key", short(j.key))

	var results []campaign.Result
	var err error
	start := time.Now()
	if s.cfg.Shards >= 1 {
		// Coordinator mode: federate the grid across leased workers. The
		// merged results are byte-identical to the local path below —
		// the distributed determinism the servertest harness asserts.
		span.Set("mode", "federated")
		j.start(nil)
		s.obs.log.Info("job federating", "job", j.id, "trace", j.trace,
			"cells", j.cells, "shards", s.cfg.Shards, "key", short(j.key))
		results, err = s.fed.distribute(s.ctx, j.id, j.trace, span.ID(), &j.grid, j.cells, s.cfg.Shards,
			func(cellsDone int, shardID string) { j.shardProgress(cellsDone, shardID) })
		if err == nil {
			err = campaign.FirstError(results)
		}
	} else {
		span.Set("mode", "local")
		runner := &campaign.Runner{
			Workers:        s.cfg.SimWorkers,
			BatchK:         s.cfg.BatchK,
			OnProgress:     func(done, total int, r *campaign.Result) { j.progress(done, total, r) },
			SimDuration:    s.obs.cellDuration,
			QueueWait:      s.obs.cellQueueWait,
			Recorder:       s.obs.rec,
			Trace:          j.trace,
			Parent:         span.ID(),
			BatchSize:      s.obs.batchSize,
			BatchedCells:   s.obs.batchedCells,
			SingletonCells: s.obs.singletonCells,
		}
		j.start(runner)
		s.obs.log.Info("job running", "job", j.id, "trace", j.trace,
			"cells", j.cells, "key", short(j.key))
		results, err = runner.Run(s.ctx, j.grid.Jobs())
	}
	wall := time.Since(start)

	var cycles uint64
	for i := range results {
		cycles += results[i].Cycles
	}
	s.sampler.Observe(cycles, wall)
	s.simsRun.Add(1)
	s.cellsRun.Add(uint64(len(results)))

	// No terminal publish here: the events handler synthesizes the
	// authoritative "done"/"failed" event when doneCh closes.
	if err != nil {
		summary := campaign.Summarize(results)
		j.fail(err.Error(), &summary)
		s.jobsFailed.Add(1)
		span.End(err.Error())
		s.obs.log.Warn("job failed", "job", j.id, "trace", j.trace, "error", err)
		return
	}
	summary := campaign.Summarize(results)
	// Cache before marking done: a client that polls "done" and
	// immediately re-POSTs the spec must find the cache populated.
	if data, err := json.Marshal(cachedPayload{Spec: j.grid, Results: results, Summary: summary}); err == nil {
		s.cache.Put(j.key, data)
	}
	j.complete(results, summary)
	s.jobsDone.Add(1)
	span.End("")
	s.obs.log.Info("job done", "job", j.id, "trace", j.trace,
		"cells", j.cells, "wall", wall.Round(time.Millisecond))
}

// handleJob is GET /v1/jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		errorJSON(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status(true))
}

// handleJobResults is GET /v1/jobs/{id}/results: the bare result slice
// of a finished job, rendered exactly as campaign.WriteJSON renders it —
// byte-comparable against cmd/paco-campaign output for the same grid,
// which is what the CI federation smoke diffs.
func (s *Server) handleJobResults(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		errorJSON(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	results, done := j.resultsIfDone()
	if !done {
		errorJSON(w, http.StatusConflict, "job %s has not finished", j.id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	campaign.WriteJSON(w, results)
}

// handleShardLease is POST /v1/shards/lease: grant the next pending
// shard to the requesting worker, or 204 when the queue is empty.
func (s *Server) handleShardLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil && err != io.EOF {
		errorJSON(w, http.StatusBadRequest, "parsing lease request: %v", err)
		return
	}
	lease, ok := s.fed.lease(req)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	if lease.Trace != "" {
		// Coordinator → worker trace propagation: the header mirrors the
		// lease body so even header-only clients can correlate.
		w.Header().Set(obs.TraceHeader, lease.Trace)
	}
	writeJSON(w, http.StatusOK, lease)
}

// handleShardRenew is POST /v1/shards/{id}/renew: restart the lease
// clock for a shard still executing, so only dead workers expire.
func (s *Server) handleShardRenew(w http.ResponseWriter, r *http.Request) {
	var ren ShardRenewal
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&ren); err != nil {
		errorJSON(w, http.StatusBadRequest, "parsing renewal: %v", err)
		return
	}
	status, msg := s.fed.renew(r.PathValue("id"), ren)
	if status >= 400 {
		errorJSON(w, status, "%s", msg)
		return
	}
	writeJSON(w, status, map[string]string{"status": msg})
}

// handleShardResult is POST /v1/shards/{id}/result.
func (s *Server) handleShardResult(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, 64<<20, "reading shard result")
	if !ok {
		return
	}
	var post ShardResultPost
	if err := json.Unmarshal(body, &post); err != nil {
		errorJSON(w, http.StatusBadRequest, "parsing shard result: %v", err)
		return
	}
	status, msg := s.fed.result(r.PathValue("id"), post)
	if status >= 400 {
		errorJSON(w, status, "%s", msg)
		return
	}
	writeJSON(w, status, map[string]string{"status": msg})
}

// Distribute federates an arbitrary campaign — `size` cells split into
// up to `shards` leases — across this server's worker federation and
// returns the merged, globally ordered results. grid non-nil ships
// self-contained grid shards (content-addressed, cache-backed); grid nil
// distributes an opaque job slice that workers resolve via their
// JobSource under the returned campaign's generated ID, campaignID. The
// servertest cluster routes experiments through this entry point.
func (s *Server) Distribute(ctx context.Context, campaignID string, grid *campaign.Grid, size, shards int) ([]campaign.Result, error) {
	return s.fed.distribute(ctx, campaignID, obs.NewTraceID(), 0, grid, size, shards, nil)
}

// InstrumentWorker attaches this server's flight recorder and per-cell
// histograms to a worker config, so an in-process federation (servertest,
// or a worker embedded next to its coordinator) records worker-side
// spans and cell timings into the coordinator's instruments.
func (s *Server) InstrumentWorker(cfg *WorkerConfig) {
	cfg.Recorder = s.obs.rec
	cfg.SimDuration = s.obs.cellDuration
	cfg.QueueWait = s.obs.cellQueueWait
	cfg.BatchSize = s.obs.batchSize
	cfg.BatchedCells = s.obs.batchedCells
	cfg.SingletonCells = s.obs.singletonCells
}

// NextCampaignID issues a fresh coordinator-unique campaign ID for
// Distribute callers that federate opaque job slices.
func (s *Server) NextCampaignID() string {
	return fmt.Sprintf("c-%06d", s.nextCampaign.Add(1))
}

// FederationStats snapshots the coordinator: pending/leased shards,
// retries, and per-worker liveness.
func (s *Server) FederationStats() FederationStats { return s.fed.stats() }

// handleExperiment is GET /v1/experiments/{name}: the named paper
// experiment rendered exactly as the CLI renders it (the same
// experiments.Run writer path paco and paco-repro use), cached under
// the content address of (name, experiment config), and single-flighted
// so a report stampede runs the experiment once.
func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !experiments.Has(name) {
		errorJSON(w, http.StatusNotFound,
			"unknown experiment %q (have %v)", name, experiments.Names())
		return
	}
	data, err := s.experimentReport(name)
	if err != nil {
		errorJSON(w, http.StatusInternalServerError, "running %s: %v", name, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(data)
}

func (s *Server) experimentReport(name string) ([]byte, error) {
	// Workers is execution parallelism only — reports are byte-identical
	// at any worker count (the campaign engine's core guarantee) — so it
	// must not perturb the content address.
	keyCfg := s.expCfg
	keyCfg.Workers = 0
	cfgJSON, err := json.Marshal(keyCfg)
	if err != nil {
		return nil, err
	}
	canon, err := CanonicalJSON(cfgJSON)
	if err != nil {
		return nil, err
	}
	key := Key([]byte("experiment"), []byte(name), canon)
	data, cached := s.cache.Get(key)
	s.obs.lookup("experiment", cached)
	if cached {
		return data, nil
	}

	s.expMu.Lock()
	if f, ok := s.expFlights[key]; ok {
		s.expMu.Unlock()
		<-f.done
		return f.data, f.err
	}
	f := &expFlight{done: make(chan struct{})}
	s.expFlights[key] = f
	s.expMu.Unlock()

	s.runExpFlight(name, key, f)
	return f.data, f.err
}

// runExpFlight executes one experiment for its single-flight leader.
// The flight is always settled and removed — even if the experiment
// panics — so followers can never block on a wedged flight; the
// semaphore keeps report execution within the worker-pool bounds
// instead of one-campaign-per-request.
func (s *Server) runExpFlight(name, key string, f *expFlight) {
	defer func() {
		if p := recover(); p != nil {
			f.err = fmt.Errorf("experiment %s panicked: %v", name, p)
		}
		if f.err == nil {
			s.cache.Put(key, f.data)
			s.simsRun.Add(1)
		}
		close(f.done)
		s.expMu.Lock()
		delete(s.expFlights, key)
		s.expMu.Unlock()
	}()
	s.expSem <- struct{}{}
	defer func() { <-s.expSem }()
	var buf bytes.Buffer
	f.err = experiments.Run(name, s.expCfg, &buf)
	f.data = buf.Bytes()
}

// handleHealthz is GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status        string       `json:"status"`
		Version       version.Info `json:"version"`
		UptimeSeconds float64      `json:"uptime_seconds"`
		QueueDepth    int          `json:"queue_depth"`
		JobsInFlight  int64        `json:"jobs_in_flight"`
	}{
		Status:        "ok",
		Version:       version.Get(),
		UptimeSeconds: time.Since(s.started).Seconds(),
		QueueDepth:    len(s.queue),
		JobsInFlight:  s.running.Load(),
	})
}

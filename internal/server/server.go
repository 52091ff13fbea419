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
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"slices"
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
	// SimWorkers is the campaign worker-pool size each job and each
	// experiment report runs with (default runtime.GOMAXPROCS(0)). An
	// Experiments config with its own Workers keeps them.
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
	memo     *admissionMemo // body digest -> admission, for POST /v1/jobs
	fed      *federation
	sessions *session.Table // nil on a routing coordinator
	router   *sessionRouter // non-nil iff cfg.RouteSessions
	backend  sessionBackend // serves /v1/sessions: the table or the router
	mux      *http.ServeMux
	obs      *serverObs

	queue chan *job

	mu       sync.Mutex
	closed   bool
	jobs     map[string]*job
	jobOrder []*job          // records not yet passed by MaxJobs eviction, oldest first
	held     []*job          // records eviction passed while unsettled, oldest first
	inflight map[string]*job // content key -> executing/queued job
	nextID   uint64

	// expSem bounds experiment reports executing at once to JobWorkers,
	// each on SimWorkers simulation goroutines, as a job runs. It is a
	// pool of its own beside the job workers: reports do not queue
	// behind jobs, nor jobs behind reports.
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
	if expCfg.Workers <= 0 {
		expCfg.Workers = cfg.SimWorkers
	}
	s := &Server{
		cfg:        cfg,
		expCfg:     expCfg,
		cache:      cache,
		memo:       newAdmissionMemo(cfg.MaxJobs),
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
	// One header value shared by every response; nothing modifies it.
	stamp := []string{version.Get().String()}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header()["X-Paco-Version"] = stamp
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		// ServeMux.ServeHTTP records the matched pattern in r.Pattern;
		// it stays empty for unknown paths and wrong methods.
		s.mux.ServeHTTP(sw, r)
		route := r.Pattern
		if route == "" {
			route = "other"
		}
		s.obs.httpDuration.With(route).Observe(time.Since(start).Seconds())
		s.obs.httpRequests.With(route, statusLabel(sw.code)).Inc()
	})
}

// statusCodes spells every status from 100 to 599, three digits each,
// so the request counter's code label is a substring, not a formatting.
var statusCodes = func() string {
	b := make([]byte, 0, 3*500)
	for code := 100; code < 600; code++ {
		b = strconv.AppendInt(b, int64(code), 10)
	}
	return string(b)
}()

func statusLabel(code int) string {
	if code < 100 || code >= 600 {
		return strconv.Itoa(code)
	}
	i := 3 * (code - 100)
	return statusCodes[i : i+3]
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

// errorJSON writes a JSON error body with the given status.
func errorJSON(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// readBody reads the request body, at most limit bytes. On failure it
// answers "label: err" — 413 past the limit, 400 otherwise — and
// returns false.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, label string) ([]byte, bool) {
	return readBodyInto(nil, w, r, limit, label)
}

// readBodyInto is readBody onto dst[:0], so a caller can reuse one
// buffer across requests. A declared Content-Length within the limit
// sizes the buffer up to 64 KiB before the first read; past that it
// grows by doubling as bytes arrive, so a client that declares a large
// body and stalls pins no more than that. The buffer comes back on
// failure too.
func readBodyInto(dst []byte, w http.ResponseWriter, r *http.Request, limit int64, label string) ([]byte, bool) {
	body := dst[:0]
	if n := r.ContentLength; n > 0 && n <= limit {
		body = slices.Grow(body, int(min(n, 64<<10))+1) // +1: room for the read that sees EOF
	}
	rd := http.MaxBytesReader(w, r.Body, limit)
	for {
		if len(body) == cap(body) {
			body = append(body, 0)[:len(body)]
		}
		n, err := rd.Read(body[len(body):cap(body)])
		body = body[:len(body)+n]
		if err == io.EOF {
			return body, true
		}
		if err != nil {
			status := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			errorJSON(w, status, "%s: %v", label, err)
			return body, false
		}
	}
}

// decodeSpec decodes a request body holding exactly one JSON document
// into v: unknown fields and anything but whitespace after the document
// are errors.
func decodeSpec(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if len(bytes.TrimSpace(body[dec.InputOffset():])) > 0 {
		return errors.New("trailing data after the spec")
	}
	return nil
}

// writeJSON answers with v as compact JSON plus a newline, the
// encoder's bytes.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// handleSubmit is POST /v1/jobs: answer from the cache, an in-flight
// duplicate, or a fresh enqueue. A body admitted before whose result is
// still cached is answered by its digest alone (admissionMemo); any
// other body is parsed, normalized and hashed to its content address.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	buf := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(buf)
	body, ok := readBodyInto(*buf, w, r, 1<<20, "reading body")
	*buf = body
	if !ok {
		return
	}
	digest := sha256.Sum256(body)
	var hit *storedHit
	a, remembered := s.memo.get(digest)
	if remembered {
		if data, ok := s.cache.Lookup(a.key); ok {
			hit = parseStored(data)
		}
	}
	s.obs.lookup("request", hit != nil)
	var grid campaign.Grid
	if hit == nil {
		if grid, a, ok = parseSubmission(w, body, s.cfg.MaxCells); !ok {
			return
		}
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

	var j *job
	var outcome string
	var err error
	if hit != nil {
		j, outcome, err = s.admit(grid, a.key, a.cells, trace, hit, true)
	} else if j, outcome, err = s.submit(grid, a.key, a.cells, trace); err == nil {
		s.memo.put(digest, a)
	}
	if err != nil {
		errorJSON(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeAdmission(w, j, outcome)
	s.obs.admitDuration.With(outcome).Observe(time.Since(start).Seconds())
}

// parseSubmission decodes a job spec, normalizes it, bounds its
// expansion and computes its content address. On failure it answers
// the error and returns false.
func parseSubmission(w http.ResponseWriter, body []byte, maxCells int) (campaign.Grid, admitted, bool) {
	var grid campaign.Grid
	if err := decodeSpec(body, &grid); err != nil {
		errorJSON(w, http.StatusBadRequest, "parsing job spec: %v", err)
		return grid, admitted{}, false
	}
	grid, err := grid.Normalized()
	if err != nil {
		errorJSON(w, http.StatusBadRequest, "%v", err)
		return grid, admitted{}, false
	}
	cells := grid.Size()
	if cells > maxCells {
		errorJSON(w, http.StatusBadRequest,
			"grid expands to %d cells, server limit is %d", cells, maxCells)
		return grid, admitted{}, false
	}
	key, err := specKey(grid)
	if err != nil {
		errorJSON(w, http.StatusInternalServerError, "%v", err)
		return grid, admitted{}, false
	}
	return grid, admitted{key: key, cells: cells}, true
}

// writeAdmission answers an admitted submission with the job's status:
// 200 with the results for a hit, 202 without them otherwise.
func writeAdmission(w http.ResponseWriter, j *job, outcome string) {
	w.Header().Set(obs.TraceHeader, j.trace)
	if outcome == "hit" {
		writeHit(w, j)
		return
	}
	st := j.status(false)
	if outcome == "inflight" {
		// Single-flighted onto an earlier submission: report where that
		// job stands, but the cache verdict for this request.
		st.Cache = "inflight"
	}
	writeJSON(w, http.StatusAccepted, st)
}

// writeHit writes a hit's 200 response from the job's cache entry,
// byte-identical to what writeJSON writes for its status with the
// decoded results: the head up to the results member (appendHead,
// which splices the stored spec), then the stored results. "results"
// is the last member a hit's status renders (its error is empty, and a
// grid has at least one cell), and the stored results are the
// encoder's bytes for the results (see jobEntry).
func writeHit(w http.ResponseWriter, j *job) {
	buf := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(buf)
	head := j.appendHead((*buf)[:0], j.storedSpec)
	head = append(head, `,"results":`...)
	*buf = head
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(head)
	w.Write(j.stored)
	io.WriteString(w, "}\n")
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

// A job's cache entry is the completed job in the form a hit answers
// with, so a hit does no JSON work: a little-endian uint64 giving the
// length of the results section, the summary as summaryWords
// little-endian 8-byte words, the results, and the spec. The results
// and the spec are json.Marshal's bytes, exactly what writeHit splices
// into the status document. Identity fields like the job id and
// timestamps stay out, so the bytes are a pure function of the spec.
const jobEntryHeader = 8 + 8*summaryWords

// summaryWords is the number of fields of campaign.Summary.
const summaryWords = 7

// jobEntry encodes a completed job as its cache entry.
func jobEntry(spec campaign.Grid, results []campaign.Result, summary campaign.Summary) ([]byte, error) {
	resultsJSON, err := json.Marshal(results)
	if err != nil {
		return nil, err
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	e := make([]byte, 0, jobEntryHeader+len(resultsJSON)+len(specJSON))
	e = binary.LittleEndian.AppendUint64(e, uint64(len(resultsJSON)))
	for _, v := range [summaryWords]uint64{
		uint64(summary.Jobs), uint64(summary.Completed), uint64(summary.Failed), uint64(summary.Skipped),
		summary.Cycles, summary.Retired, math.Float64bits(summary.MeanIPC),
	} {
		e = binary.LittleEndian.AppendUint64(e, v)
	}
	e = append(e, resultsJSON...)
	return append(e, specJSON...), nil
}

// storedHit is a job's cache entry as admission reads it: the results
// and spec sections, still bytes, and the summary.
type storedHit struct {
	results, spec json.RawMessage
	summary       campaign.Summary
}

// parseStored reads a job's cache entry, or returns nil when its
// section lengths do not fit it: such a lookup counts as a miss and the
// job is simulated again, rewriting the entry. Only the lengths are
// checked — the bytes were written by jobEntry in this process, or
// passed the cache's frame check when they were loaded from disk.
func parseStored(e []byte) *storedHit {
	if len(e) < jobEntryHeader {
		return nil
	}
	n := binary.LittleEndian.Uint64(e)
	if n == 0 || n >= uint64(len(e)-jobEntryHeader) {
		return nil // no results, or no spec after them
	}
	word := func(i int) uint64 { return binary.LittleEndian.Uint64(e[8+8*i:]) }
	return &storedHit{
		results: e[jobEntryHeader : jobEntryHeader+int(n)],
		spec:    e[jobEntryHeader+int(n):],
		summary: campaign.Summary{
			Jobs: int(word(0)), Completed: int(word(1)), Failed: int(word(2)), Skipped: int(word(3)),
			Cycles: word(4), Retired: word(5), MeanIPC: math.Float64frombits(word(6)),
		},
	}
}

// submit implements the content-addressed admission path. The cache
// entry is read and parsed before taking s.mu; then exactly one of three
// outcomes happens under the lock:
//
//   - "hit": the canonical spec is in the cache — a pre-completed job
//     record is created from the stored bytes, nothing is enqueued.
//   - "inflight": an identical spec is already queued or running — the
//     submission single-flights onto that job.
//   - "miss": a fresh job is enqueued.
func (s *Server) submit(grid campaign.Grid, key string, cells int, trace string) (*job, string, error) {
	for {
		var hit *storedHit
		data, stored := s.cache.Lookup(key)
		if stored {
			hit = parseStored(data)
		}
		j, outcome, err := s.admit(grid, key, cells, trace, hit, stored)
		if outcome != "" || err != nil {
			return j, outcome, err
		}
		// The entry was stored between the lookup and the lock: read it.
	}
}

// admit settles a submission under s.mu given its cache entry (stored
// reports one exists, hit is it parsed). An empty outcome means a job
// for the key completed since the lookup, and the caller looks again.
func (s *Server) admit(grid campaign.Grid, key string, cells int, trace string, hit *storedHit, stored bool) (*job, string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, "", errors.New("server is shutting down")
	}
	if hit != nil {
		s.countLookup(true)
		// The hit's spec is the entry's, decoded only if a typed reader
		// asks (gridLocked), whether or not the request's was parsed.
		j := newJob(s.nextIDLocked(), key, campaign.Grid{}, cells, trace)
		j.completeFromCache(hit)
		s.registerJobLocked(j)
		return j, "hit", nil
	}
	if stored {
		s.obs.log.Warn("cache entry undecodable; re-simulating", "key", short(key))
	} else if _, ok := s.cache.Lookup(key); ok {
		// runJob caches before it leaves s.inflight, so a job finishing
		// after the lookup is caught here rather than simulated again.
		return nil, "", nil
	}
	s.countLookup(false)
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

// countLookup records a job cache lookup's verdict in both the cache's
// counters and the lookup-outcome family.
func (s *Server) countLookup(hit bool) {
	s.cache.Count(hit)
	s.obs.lookup("job", hit)
}

func (s *Server) nextIDLocked() string {
	s.nextID++
	var num, id [24]byte
	dec := strconv.AppendUint(num[:0], s.nextID, 10)
	b := append(append(id[:0], "j-"...), "000000"[min(len(dec), 6):]...) // at least six digits
	return string(append(b, dec...))
}

// registerJobLocked records a job and bounds the retained records:
// beyond MaxJobs, the oldest settled jobs are forgotten (their results
// remain reachable through the content-addressed cache). Queued and
// running jobs are kept regardless — they are bounded by the queue and
// worker pool. Eviction passes each record once, oldest first; one it
// passes unsettled waits in s.held, where later rounds look again
// before anything newer. A round therefore costs the records it evicts
// plus the held ones, not the whole table.
func (s *Server) registerJobLocked(j *job) {
	s.jobs[j.id] = j
	s.jobOrder = append(s.jobOrder, j)
	if len(s.jobs) <= s.cfg.MaxJobs {
		return
	}
	kept := s.held[:0]
	for _, old := range s.held {
		if len(s.jobs) > s.cfg.MaxJobs && old.terminal() {
			delete(s.jobs, old.id)
			continue
		}
		kept = append(kept, old)
	}
	clear(s.held[len(kept):])
	s.held = kept
	for len(s.jobs) > s.cfg.MaxJobs && len(s.jobOrder) > 0 {
		old := s.jobOrder[0]
		s.jobOrder[0] = nil // let the evicted record go
		s.jobOrder = s.jobOrder[1:]
		if old.terminal() {
			delete(s.jobs, old.id)
		} else {
			s.held = append(s.held, old)
		}
	}
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
		results, err = s.fed.distribute(s.ctx, j.trace, span.ID(), &j.grid, s.cfg.Shards,
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
	if data, err := jobEntry(j.grid, results, summary); err == nil {
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
	results, done, err := j.resultsIfDone()
	if !done {
		errorJSON(w, http.StatusConflict, "job %s has not finished", j.id)
		return
	}
	if err != nil {
		errorJSON(w, http.StatusInternalServerError, "job %s: %v", j.id, err)
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

// experimentKey is the content address of experiment name's report
// under cfg. Workers is execution parallelism only — reports are
// byte-identical at any worker count (the campaign engine's core
// guarantee) — so it does not perturb the address.
func experimentKey(name string, cfg experiments.Config) (string, error) {
	cfg.Workers = 0
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return "", err
	}
	canon, err := CanonicalJSON(cfgJSON)
	if err != nil {
		return "", err
	}
	return Key([]byte("experiment"), []byte(name), canon), nil
}

func (s *Server) experimentReport(name string) ([]byte, error) {
	key, err := experimentKey(name, s.expCfg)
	if err != nil {
		return nil, err
	}
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
// panics — so followers can never block on a wedged flight; expSem
// bounds how many reports execute at once.
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

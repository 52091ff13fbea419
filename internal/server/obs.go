package server

import (
	"log/slog"
	"time"

	"paco/internal/obs"
	"paco/internal/obs/tsdb"
	"paco/internal/session"
	"paco/internal/version"
)

// serverObs bundles the server's observability plumbing: the metric
// registry behind GET /metrics, the flight recorder behind
// GET /debug/flight, the structured logger, and the push-style
// instruments the hot paths write into. One serverObs is built per
// Server and shared with its federation; in-process worker federations
// (servertest) attach to the same recorder and histograms through
// Server.InstrumentWorker so a whole cluster records into one place.
type serverObs struct {
	reg *obs.Registry
	rec *obs.Recorder
	log *slog.Logger

	// ts is the time-series store behind GET /v1/timeseries and the
	// /debug/dash sparklines: every registry family sampled into ring
	// buffers at Config.SampleInterval. Created in New, started in
	// Server.Start, stopped in Server.Close.
	ts *tsdb.Store

	// level, when non-nil, is the runtime log-level dial behind
	// GET/PUT /debug/loglevel (Config.LogLevel).
	level *slog.LevelVar

	// Per-cell simulation timings. Observed by the local campaign runner
	// and by in-process federation workers wired via InstrumentWorker.
	cellDuration  *obs.Histogram // simulate seconds per cell
	cellQueueWait *obs.Histogram // seconds from campaign start to cell pickup

	// Batched lockstep execution shape: how many cells each planned
	// execution unit carried, and how many cells ran on each path.
	batchSize      *obs.Histogram
	batchedCells   *obs.Counter
	singletonCells *obs.Counter

	// HTTP server-side request accounting, labeled by mux route pattern.
	httpDuration *obs.HistogramVec
	httpRequests *obs.CounterVec

	// Content-addressed lookup outcomes by kind (request, job, shard,
	// experiment); a request lookup is admissionMemo's.
	cacheLookups *obs.CounterVec

	// POST /v1/jobs receipt to response written, by cache verdict
	// (hit, inflight, miss).
	admitDuration *obs.HistogramVec

	// sessionMetrics are the push instruments the /v1/sessions table
	// writes into (paco_session_*); the open/queued gauges scrape the
	// table directly.
	sessionMetrics session.Metrics

	// Session-router instruments (paco_session_routed_* and
	// paco_session_failover_*): written by sessionrouter.go when
	// Config.RouteSessions is on, flat zero otherwise.
	routedOpened     *obs.Counter
	routedClosed     *obs.CounterVec
	routedChunks     *obs.Counter
	failovers        *obs.Counter
	failoverReplayed *obs.Counter
}

// newServerObs builds the registry and instruments for one server. The
// legacy families (everything the pre-registry /metrics exported) are
// registered first, name-for-name and in the original order, backed by
// scrape-time callbacks into live server state; the instrumentation
// families and Go runtime gauges follow.
func newServerObs(s *Server, logger *slog.Logger, flightSpans int) *serverObs {
	o := &serverObs{
		reg: obs.NewRegistry(),
		log: obs.OrNop(logger),
	}
	if flightSpans >= 0 {
		o.rec = obs.NewRecorder(flightSpans)
	}
	r := o.reg

	info := version.Get()
	r.Func("paco_build_info", "gauge", "Build metadata of the running server.",
		func(emit func(float64, ...obs.Label)) {
			emit(1, obs.L("version", info.Version), obs.L("go", info.GoVersion))
		})
	r.GaugeFunc("paco_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.started).Seconds() })
	r.GaugeFunc("paco_queue_depth", "Jobs waiting in the bounded queue.",
		func() float64 { return float64(len(s.queue)) })
	r.GaugeFunc("paco_queue_capacity", "Capacity of the bounded queue.",
		func() float64 { return float64(s.cfg.QueueSize) })
	r.GaugeFunc("paco_jobs_inflight", "Jobs executing right now.",
		func() float64 { return float64(s.running.Load()) })
	r.Func("paco_jobs_total", "counter", "Settled jobs by outcome.",
		func(emit func(float64, ...obs.Label)) {
			emit(float64(s.jobsDone.Load()), obs.L("status", "done"))
			emit(float64(s.jobsFailed.Load()), obs.L("status", "failed"))
		})
	r.CounterFunc("paco_simulations_total", "Campaigns actually simulated (cache misses that ran).",
		func() float64 { return float64(s.simsRun.Load()) })
	r.CounterFunc("paco_sim_cells_total", "Campaign cells simulated.",
		func() float64 { return float64(s.cellsRun.Load()) })
	r.CounterFunc("paco_cache_hits_total", "Content-addressed cache hits.",
		func() float64 { return float64(s.cache.Stats().Hits) })
	r.CounterFunc("paco_cache_misses_total", "Content-addressed cache misses.",
		func() float64 { return float64(s.cache.Stats().Misses) })
	r.GaugeFunc("paco_cache_entries", "Entries resident in the cache.",
		func() float64 { return float64(s.cache.Stats().Entries) })
	r.GaugeFunc("paco_cache_bytes", "Bytes resident in the cache.",
		func() float64 { return float64(s.cache.Stats().Bytes) })
	r.GaugeFunc("paco_cache_budget_bytes", "Cache byte budget.",
		func() float64 { return float64(s.cache.Stats().Budget) })
	r.CounterFunc("paco_sim_cycles_total", "Simulated cycles across all executed jobs.",
		func() float64 { cycles, _, _ := s.sampler.Totals(); return float64(cycles) })
	r.CounterFunc("paco_sim_wall_seconds_total", "Wall seconds spent simulating.",
		func() float64 { _, wall, _ := s.sampler.Totals(); return wall.Seconds() })
	r.CounterFunc("paco_sim_samples_total", "Throughput observations recorded.",
		func() float64 { _, _, samples := s.sampler.Totals(); return float64(samples) })
	r.GaugeFunc("paco_sim_kcycles_per_sec", "Cumulative simulated kcycles per wall second (internal/perf sampler).",
		s.sampler.KCyclesPerSec)
	r.GaugeFunc("paco_sim_kcycles_per_sec_last", "Most recent job's simulated kcycles per wall second.",
		s.sampler.LastKCyclesPerSec)
	r.GaugeFunc("paco_federation_shards_pending", "Shards queued for lease.",
		func() float64 { return float64(s.fed.stats().ShardsPending) })
	r.GaugeFunc("paco_federation_shards_leased", "Shards currently leased to workers.",
		func() float64 { return float64(s.fed.stats().ShardsLeased) })
	r.CounterFunc("paco_federation_shards_completed_total", "Shards completed by the federation.",
		func() float64 { return float64(s.fed.stats().ShardsCompleted) })
	r.CounterFunc("paco_federation_shard_retries_total", "Shard re-leases after lease expiry or worker-reported failure.",
		func() float64 { return float64(s.fed.stats().Retries) })
	r.GaugeFunc("paco_federation_lease_age_seconds_max", "Age of the oldest outstanding lease.",
		func() float64 { return s.fed.stats().OldestLeaseAge.Seconds() })
	r.GaugeFunc("paco_federation_workers_live", "Workers that checked in within the liveness window.",
		func() float64 { return float64(s.fed.stats().WorkersLive) })
	r.Func("paco_federation_worker_last_seen_seconds", "gauge",
		"Seconds since each federation worker last checked in.",
		func(emit func(float64, ...obs.Label)) {
			for _, ws := range s.fed.stats().Workers {
				emit(ws.LastSeenAge.Seconds(), obs.L("worker", ws.Name))
			}
		})

	// Instrumentation families introduced with the obs registry.
	o.cellDuration = r.Histogram("paco_sim_cell_duration_seconds",
		"Simulation wall seconds per campaign cell.", obs.DurationBuckets())
	o.cellQueueWait = r.Histogram("paco_sim_cell_queue_wait_seconds",
		"Seconds a cell waited from campaign start to worker pickup.", obs.DurationBuckets())
	o.batchSize = r.Histogram("paco_campaign_batch_size",
		"Cells per planned batched-lockstep execution unit.",
		[]float64{1, 2, 4, 8, 16, 32})
	o.batchedCells = r.Counter("paco_campaign_cells_batched_total",
		"Campaign cells executed on the batched lockstep path (shared instruction stream).")
	o.singletonCells = r.Counter("paco_campaign_cells_singleton_total",
		"Campaign cells executed as a unit of one (a one-lane batch).")
	o.httpRequests = r.CounterVec("paco_http_requests_total",
		"HTTP requests served, by mux route and status code.", "route", "code")
	o.httpDuration = r.HistogramVec("paco_http_request_duration_seconds",
		"HTTP request duration by mux route.", "route", obs.DurationBuckets())
	o.cacheLookups = r.CounterVec("paco_cache_lookups_total",
		"Content-addressed lookups by kind (request, job, shard, experiment) and outcome.", "kind", "outcome")
	o.admitDuration = r.HistogramVec("paco_job_admit_duration_seconds",
		"Seconds from POST /v1/jobs receipt to response written, by cache verdict (hit, inflight, miss).",
		"cache", obs.DurationBuckets())
	// Per-run throughput as a distribution (not just the cumulative and
	// last-run gauges above): buckets span ~1e2..1e7 kcycles/sec.
	rateHist := r.Histogram("paco_sim_job_kcycles_per_sec",
		"Per-run simulated kilocycles per wall second.", obs.ExpBuckets(100, 4, 9))
	s.sampler.OnRate(rateHist.Observe)
	// Live estimator-session families (the /v1/sessions subsystem). The
	// gauges read the table at scrape time; it is wired up right after
	// newServerObs returns, before any request can reach /metrics, and a
	// routing coordinator has none (the gauges read zero).
	r.GaugeFunc("paco_session_open", "Estimator sessions currently open.",
		func() float64 {
			if s.sessions == nil {
				return 0
			}
			return float64(s.sessions.Len())
		})
	r.GaugeFunc("paco_session_queued_events", "Decoded events awaiting application across all sessions.",
		func() float64 {
			if s.sessions == nil {
				return 0
			}
			return float64(s.sessions.QueuedEvents())
		})
	o.sessionMetrics = session.Metrics{
		Opened: r.Counter("paco_session_opened_total", "Estimator sessions opened."),
		Closed: r.CounterVec("paco_session_closed_total",
			"Estimator sessions closed, by reason (client, evicted, shutdown).", "reason"),
		OpenRejected: r.Counter("paco_session_open_rejected_total",
			"Session opens rejected by the table's session cap."),
		Events: r.Counter("paco_session_events_total", "Events accepted into session queues."),
		Backpressure: r.Counter("paco_session_backpressure_total",
			"Ingest chunks rejected by a full session queue (HTTP 429s)."),
		IngestDuration: r.Histogram("paco_session_ingest_duration_seconds",
			"Seconds per session ingest call (decode + enqueue).", obs.DurationBuckets()),
		ApplyBatch: r.Histogram("paco_session_apply_batch_events",
			"Events applied per session shard-worker drain.", obs.ExpBuckets(1, 4, 9)),
	}
	// Session-router families. The gauges read the router at scrape
	// time and report zero when Config.RouteSessions is off (the router
	// is wired right after newServerObs returns, like the table above).
	r.GaugeFunc("paco_session_routed_open", "Routed estimator sessions currently live on federation workers.",
		func() float64 {
			if s.router == nil {
				return 0
			}
			return float64(s.router.open())
		})
	r.GaugeFunc("paco_session_routed_journal_bytes", "Bytes of acknowledged chunks journaled for routed-session failover.",
		func() float64 {
			if s.router == nil {
				return 0
			}
			return float64(s.router.journalBytes.Load())
		})
	o.routedOpened = r.Counter("paco_session_routed_opened_total",
		"Routed estimator sessions opened on federation workers.")
	o.routedClosed = r.CounterVec("paco_session_routed_closed_total",
		"Routed estimator sessions closed, by reason (client, evicted).", "reason")
	o.routedChunks = r.Counter("paco_session_routed_chunks_total",
		"Ingest chunks acknowledged by session workers and journaled.")
	o.failovers = r.Counter("paco_session_failover_total",
		"Routed sessions re-homed to a surviving worker after their owner died.")
	o.failoverReplayed = r.Counter("paco_session_failover_replayed_chunks_total",
		"Journaled chunks replayed into re-homed sessions during failover.")
	r.CounterFunc("paco_flight_spans_recorded_total", "Spans committed to the flight recorder.",
		func() float64 { return float64(o.rec.Recorded()) })
	r.GaugeFunc("paco_flight_spans_active", "Spans started but not yet ended.",
		func() float64 { return float64(o.rec.Active()) })
	// Named per the observability plan (no paco_ prefix): the flight
	// ring's overwrite counter. Nonzero means /debug/flight no longer
	// holds the full span history — raise Config.FlightSpans.
	r.CounterFunc("obs_spans_dropped_total", "Finished spans overwritten by the flight recorder ring before being read.",
		func() float64 { return float64(o.rec.Dropped()) })
	obs.RegisterGoRuntime(r, "paco_")
	return o
}

// lookup records a content-addressed lookup outcome.
func (o *serverObs) lookup(kind string, hit bool) {
	outcome := "miss"
	if hit {
		outcome = "hit"
	}
	o.cacheLookups.With(kind, outcome).Inc()
}

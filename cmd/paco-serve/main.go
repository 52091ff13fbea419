// Command paco-serve runs the simulation service: an HTTP/JSON front end
// over the campaign engine with a content-addressed result cache, so
// repeated identical configurations never re-simulate. With -shards it
// becomes a federation coordinator that fans each submitted sweep out
// over remote workers; with -coordinator it becomes such a worker.
//
// Usage:
//
//	paco-serve [flags]
//	paco-serve -coordinator http://host:8344 [-worker-name w1] [-j N]
//	paco-serve -coordinator http://host:8344 -sessions-addr :0   # session worker
//
// Endpoints:
//
//	POST /v1/jobs                 submit a run or sweep (campaign.Grid JSON)
//	GET  /v1/jobs/{id}            job status + results
//	GET  /v1/jobs/{id}/results    bare result slice (campaign.WriteJSON bytes)
//	GET  /v1/jobs/{id}/events     SSE progress stream
//	POST /v1/shards/lease         worker protocol: lease the next shard
//	POST /v1/shards/{id}/renew    worker protocol: keep a slow shard's lease alive
//	POST /v1/shards/{id}/result   worker protocol: post shard results
//	POST /v1/sessions             open a live estimator session (session.Spec JSON)
//	POST /v1/sessions/{id}/events stream branch events (NDJSON or binary trace chunks)
//	GET  /v1/sessions/{id}/scores rolling score snapshot
//	GET  /v1/sessions/{id}/live   SSE score stream (ends with a "final" event)
//	DELETE /v1/sessions/{id}      close the session; returns final scores
//	GET  /v1/experiments/{name}   paper figure/table, byte-identical to the CLI
//	GET  /v1/campaigns/{id}/report campaign analytics (deterministic; ?exec=1 adds timelines)
//	GET  /v1/timeseries           sampled metric history (?family=&labels=&since=&points=)
//	GET  /metrics                 Prometheus text metrics (incl. federation)
//	GET  /healthz                 liveness + build stamp
//	GET  /debug/flight            span flight recorder (?kind=&trace=&limit=&since=)
//	GET  /debug/dash              live sparkline dashboard (static HTML, no deps)
//	GET  /debug/loglevel          runtime log level (PUT a new one to retune)
//	GET  /debug/pprof/            Go profiles (only with -pprof)
//
// Logs are structured (log/slog): text by default, JSON with -log-json,
// filtered by -log-level; every job-lifecycle record carries the job's
// trace ID (X-Paco-Trace).
//
// Examples:
//
//	# serve on :8344 with a 128 MiB cache persisted across restarts
//	paco-serve -cache-mb 128 -cache-dir /var/cache/paco
//
//	# a 2-worker federation: sweeps shard across the workers, and the
//	# merged report is byte-identical to a single-process run
//	paco-serve -shards 2 -addr :8344 &
//	paco-serve -coordinator http://localhost:8344 -worker-name w1 &
//	paco-serve -coordinator http://localhost:8344 -worker-name w2 &
//
//	# submit a sweep and read it back
//	curl -s localhost:8344/v1/jobs -d '{"benchmarks":["gzip","twolf"]}'
//	curl -s localhost:8344/v1/jobs/j-000001
//	curl -N localhost:8344/v1/jobs/j-000001/events
//
//	# routed estimator sessions: the coordinator hashes each session
//	# onto a worker and journals its chunks; kill a worker mid-stream
//	# and its sessions replay onto a survivor with identical finals
//	paco-serve -route-sessions -addr :8344 &
//	paco-serve -coordinator http://localhost:8344 -worker-name w1 -sessions-addr :0 &
//	paco-serve -coordinator http://localhost:8344 -worker-name w2 -sessions-addr :0 &
//	curl -s localhost:8344/v1/sessions -d '{"estimators":[{"kind":"paco"}]}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"paco/internal/experiments"
	"paco/internal/obs"
	"paco/internal/server"
	"paco/internal/version"
)

func main() {
	opts, err := configFromFlags(os.Args[1:])
	if err != nil {
		// The flag set has printed the error and usage already.
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		os.Exit(2)
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "paco-serve:", err)
		os.Exit(1)
	}
}

// options is paco-serve's parsed command line: the server configuration
// plus the process settings that live outside it.
type options struct {
	// cfg configures serve mode; a worker's session endpoint takes the
	// subset of it that applies there (sessionConfig).
	cfg server.Config

	addr, portFile          string
	quiet, logJSON          bool
	logLevel                string
	showVersion             bool
	coordinator, workerName string
	poll                    time.Duration
	sessionsAddr, advertise string
}

// configFromFlags parses the command line. Parse errors and -h are
// reported on stderr by the flag set.
func configFromFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("paco-serve", flag.ContinueOnError)
	o := &options{}
	c := &o.cfg
	fs.StringVar(&o.addr, "addr", ":8344", "listen address (host:port; port 0 picks a free port)")
	fs.IntVar(&c.JobWorkers, "jobworkers", 2, "campaigns executing concurrently")
	fs.IntVar(&c.SimWorkers, "j", 0, "campaign worker pool per job (0 = GOMAXPROCS)")
	fs.IntVar(&c.BatchK, "batch", 0, "batched lockstep width for campaign cells (0 = default 8, 1 = unbatched; results are byte-identical either way)")
	fs.IntVar(&c.QueueSize, "queue", 64, "bounded job queue size")
	cacheMB := fs.Int64("cache-mb", 64, "content-addressed cache budget in MiB")
	fs.StringVar(&c.CacheDir, "cache-dir", "", "persist cache entries to this directory")
	quick := fs.Bool("quick", false, "serve /v1/experiments at the small test-scale configuration")
	fs.StringVar(&o.portFile, "portfile", "", "write the bound address to this file once listening")
	fs.BoolVar(&o.quiet, "quiet", false, "suppress operational logging")
	fs.StringVar(&o.logLevel, "log-level", "info", "minimum log level: debug, info, warn, or error")
	fs.BoolVar(&o.logJSON, "log-json", false, "emit logs as JSON objects instead of text")
	fs.BoolVar(&c.EnablePprof, "pprof", false, "expose Go profiling endpoints at /debug/pprof/")
	fs.DurationVar(&c.SampleInterval, "sample-interval", 0, "metric sampling period for /v1/timeseries and /debug/dash (0 = 1s, negative disables)")
	fs.IntVar(&c.SessionMaxOpen, "session-max", 0, "cap on concurrently open estimator sessions (0 = default 1024)")
	fs.IntVar(&c.SessionQueueEvents, "session-queue", 0, "queued-event high-water mark per session before ingest sees 429 (0 = default 65536)")
	fs.DurationVar(&c.SessionTTL, "session-ttl", 0, "evict estimator sessions idle this long (0 = default 5m)")
	fs.IntVar(&c.Shards, "shards", 0, "coordinator mode: split each sweep into up to N shards for federation workers (0 = execute locally)")
	fs.DurationVar(&c.LeaseTTL, "lease-ttl", 30*time.Second, "coordinator: re-lease a shard this long after its worker goes silent")
	fs.BoolVar(&c.RouteSessions, "route-sessions", false, "coordinator mode: hash /v1/sessions across federation workers started with -sessions-addr, journaling chunks so sessions fail over when their worker dies")
	fs.StringVar(&o.coordinator, "coordinator", "", "worker mode: lease shards from this coordinator URL instead of serving")
	fs.StringVar(&o.workerName, "worker-name", "", "worker mode: name reported to the coordinator (default hostname-pid)")
	fs.DurationVar(&o.poll, "poll", 500*time.Millisecond, "worker mode: idle poll interval")
	fs.StringVar(&o.sessionsAddr, "sessions-addr", "", "worker mode: also serve /v1/sessions on this address and advertise it to the coordinator (port 0 picks a free port)")
	fs.StringVar(&o.advertise, "advertise", "", "worker mode: session URL to advertise instead of the bound -sessions-addr (for NAT or container networking)")
	fs.BoolVar(&o.showVersion, "version", false, "print the build stamp and exit")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	c.CacheBytes = *cacheMB << 20
	if *quick {
		q := experiments.Quick()
		c.Experiments = &q
	}
	return o, nil
}

// sessionConfig is the configuration of a worker's session endpoint:
// the serve-mode settings that apply to a server that only hosts
// sessions.
func sessionConfig(c server.Config) server.Config {
	return server.Config{
		JobWorkers:         c.JobWorkers,
		SimWorkers:         c.SimWorkers,
		CacheBytes:         c.CacheBytes,
		SampleInterval:     c.SampleInterval,
		SessionMaxOpen:     c.SessionMaxOpen,
		SessionQueueEvents: c.SessionQueueEvents,
		SessionTTL:         c.SessionTTL,
	}
}

func run(o *options) error {
	if o.showVersion {
		version.Fprint(os.Stdout, "paco-serve")
		return nil
	}

	logger, levelVar, err := buildLogger(o.logLevel, o.logJSON)
	if err != nil {
		return err
	}
	if o.coordinator != "" {
		wcfg := server.WorkerConfig{
			Coordinator: o.coordinator,
			Name:        o.workerName,
			SimWorkers:  o.cfg.SimWorkers,
			BatchK:      o.cfg.BatchK,
			Poll:        o.poll,
			Log:         workerLog(logger, o.quiet),
		}
		var sess *sessionServer
		if o.sessionsAddr != "" {
			scfg := sessionConfig(o.cfg)
			scfg.LogLevel = levelVar
			if !o.quiet {
				scfg.Log = logger
			}
			var err error
			sess, err = startSessionServer(o.sessionsAddr, o.advertise, scfg, o.portFile)
			if err != nil {
				return err
			}
			wcfg.SessionsURL = sess.url
			logger.Info("serving sessions", "addr", sess.bound, "advertise", sess.url)
		}
		return runWorker(wcfg, sess, logger)
	}

	cfg := o.cfg
	cfg.LogLevel = levelVar
	if !o.quiet {
		cfg.Log = logger
	}

	s, err := server.New(cfg)
	if err != nil {
		return err
	}
	s.Start()

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if o.portFile != "" {
		if err := os.WriteFile(o.portFile, []byte(bound), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	mode := "local"
	if cfg.Shards >= 1 {
		mode = fmt.Sprintf("coordinator (up to %d shards per sweep)", cfg.Shards)
	}
	logger.Info("listening", "addr", bound, "version", version.Get().String(),
		"experiments", map[bool]string{false: "full", true: "quick"}[cfg.Experiments != nil], "mode", mode)

	httpServer := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Serve until SIGINT/SIGTERM, then drain: stop accepting, cancel
	// in-flight campaigns, and give connections a moment to flush.
	errCh := make(chan error, 1)
	go func() { errCh <- httpServer.Serve(ln) }()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		s.Close()
		return err
	case sig := <-sigCh:
		logger.Info("draining", "signal", sig.String())
		s.Close()
		// Shutdown (not Close) lets in-flight responses — including SSE
		// streams, which terminate once s.Close settles their jobs —
		// finish; the timeout caps how long a stuck client can hold the
		// process.
		httpServer.SetKeepAlivesEnabled(false)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr := httpServer.Shutdown(ctx)
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return shutdownErr
	}
}

// sessionServer is a worker's session-serving HTTP endpoint: the
// /v1/sessions surface a routing coordinator proxies into, advertised
// through the worker's lease polls.
type sessionServer struct {
	srv   *server.Server
	http  *http.Server
	ln    net.Listener
	bound string
	url   string
}

// startSessionServer binds and starts a worker-side session endpoint.
// The advertised URL defaults to the bound address with an unspecified
// host rewritten to a loopback one (":0" binds every interface, but
// "http://[::]:port" is not dialable); portFile, when set, records the
// bound address for scripts that need to scrape the worker directly.
func startSessionServer(addr, advertise string, cfg server.Config, portFile string) (*sessionServer, error) {
	s, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	bound := ln.Addr().String()
	if portFile != "" {
		if err := os.WriteFile(portFile, []byte(bound), 0o644); err != nil {
			ln.Close()
			return nil, err
		}
	}
	url := advertise
	if url == "" {
		host, port, err := net.SplitHostPort(bound)
		if err != nil {
			ln.Close()
			return nil, err
		}
		if host == "" || host == "::" || host == "0.0.0.0" {
			host = "127.0.0.1"
		}
		url = "http://" + net.JoinHostPort(host, port)
	}
	s.Start()
	hs := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	return &sessionServer{srv: s, http: hs, ln: ln, bound: bound, url: url}, nil
}

// runWorker is -coordinator mode: a lease/execute/post loop against a
// remote coordinator, until SIGINT/SIGTERM. A signal mid-shard abandons
// the shard (the coordinator re-leases it after -lease-ttl) — the
// worker-death path the federation is tested against. sess, when
// non-nil, is the worker's session endpoint, served alongside the lease
// loop and shut down with it.
func runWorker(cfg server.WorkerConfig, sess *sessionServer, logger *slog.Logger) error {
	w, err := server.NewWorker(cfg)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sessErr := make(chan error, 1)
	if sess != nil {
		go func() { sessErr <- sess.http.Serve(sess.ln) }()
	}
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		logger.Info("stopping", "worker", w.Name(), "signal", sig.String())
		cancel()
	}()
	logger.Info("worker leasing", "worker", w.Name(),
		"coordinator", cfg.Coordinator, "version", version.Get().String())
	w.Run(ctx)
	if sess != nil {
		// Graceful stop: open sessions close with their queues applied.
		// A *killed* worker never reaches this path — that is the death
		// the coordinator's journal-replay failover covers.
		shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancelShutdown()
		sess.http.SetKeepAlivesEnabled(false)
		sess.http.Shutdown(shutdownCtx)
		sess.srv.Close()
		if err := <-sessErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Warn("session server exited", "error", err)
		}
	}
	logger.Info("worker done", "worker", w.Name(), "shards", w.ShardsDone())
	return nil
}

// buildLogger assembles the process logger from the -log-level and
// -log-json flags: structured text or JSON on stderr. The returned
// LevelVar is the runtime dial — handed to server.Config.LogLevel, it
// backs GET/PUT /debug/loglevel so the floor set here is adjustable
// without a restart.
func buildLogger(level string, jsonOut bool) (*slog.Logger, *slog.LevelVar, error) {
	lvl, err := obs.ParseLevel(level)
	if err != nil {
		return nil, nil, fmt.Errorf("-log-level: %w", err)
	}
	lv := new(slog.LevelVar)
	lv.Set(lvl)
	opts := &slog.HandlerOptions{Level: lv}
	if jsonOut {
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), lv, nil
	}
	return slog.New(slog.NewTextHandler(os.Stderr, opts)), lv, nil
}

// workerLog keeps per-shard worker chatter behind -quiet while leaving
// lifecycle messages on the main logger.
func workerLog(logger *slog.Logger, quiet bool) *slog.Logger {
	if quiet {
		return slog.New(slog.DiscardHandler)
	}
	return logger
}

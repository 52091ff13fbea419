package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"paco/internal/obs"
	"paco/internal/server"
)

// cluster is the in-process deployment a server workload drives: one
// server on a loopback listener and, for the federated topologies, two
// workers polling it over HTTP exactly as separate paco-serve processes
// would.
type cluster struct {
	srv     *server.Server
	http    *httptest.Server
	workers []*workerProc
	fed     *fedTiming // worker-side lease protocol timings (traced runs)
	hooks   *workerHooks
}

type workerProc struct {
	cancel   context.CancelFunc
	done     chan struct{}
	sessSrv  *server.Server
	sessHTTP *httptest.Server
}

// workerHooks are the observation hooks a traced run hands every
// federation worker, one registry shared across the two.
type workerHooks struct {
	simDuration, queueWait   *obs.Histogram
	batchSize                *obs.Histogram
	batchedCells, singletons *obs.Counter
}

func newWorkerHooks() *workerHooks {
	reg := obs.NewRegistry()
	fine := obs.ExpBuckets(1e-6, 1.05, 400) // 5% resolution from 1µs to ~300s
	return &workerHooks{
		simDuration:  reg.Histogram("bench_cell_seconds", "cell simulate seconds", fine),
		queueWait:    reg.Histogram("bench_cell_queue_wait_seconds", "cell queue wait seconds", fine),
		batchSize:    reg.Histogram("bench_batch_size", "cells per execution unit", obs.ExpBuckets(1, 2, 8)),
		batchedCells: reg.Counter("bench_cells_batched_total", "cells run batched"),
		singletons:   reg.Counter("bench_cells_singleton_total", "cells run alone"),
	}
}

// topology names what startCluster builds.
type topology int

const (
	plainServer   topology = iota // one server, sessions in its local table
	federation                    // coordinator with Shards=2 and two simulation workers
	sessionRouter                 // RouteSessions coordinator and two session workers
)

// Worker poll periods: simulation workers poll often so a fresh job's
// shards are picked up within a few milliseconds; session workers poll
// only as the heartbeat that advertises their endpoint.
const (
	simPoll     = 5 * time.Millisecond
	sessionPoll = 100 * time.Millisecond
)

// startCluster builds and starts a topology and returns once it can
// serve its first request: for the federated topologies, once both
// workers have checked in with the coordinator. tr, when non-nil, turns
// on the worker-side hooks and timing transport.
func startCluster(top topology, tr *tracer) (*cluster, error) {
	cfg := server.Config{SampleInterval: -1}
	switch top {
	case federation:
		cfg.Shards = 2
	case sessionRouter:
		cfg.RouteSessions = true
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	srv.Start()
	c := &cluster{srv: srv, http: httptest.NewServer(srv.Handler())}
	if tr != nil && top == federation {
		c.fed = &fedTiming{}
		c.hooks = newWorkerHooks()
	}
	if top == plainServer {
		return c, nil
	}
	for i := 0; i < 2; i++ {
		if err := c.startWorker(top, fmt.Sprintf("w%d", i+1), tr); err != nil {
			c.close()
			return nil, err
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for srv.FederationStats().WorkersLive < 2 {
		if time.Now().After(deadline) {
			c.close()
			return nil, errors.New("workers did not check in within 30s")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return c, nil
}

func (c *cluster) url() string { return c.http.URL }

func (c *cluster) startWorker(top topology, name string, tr *tracer) error {
	wcfg := server.WorkerConfig{Coordinator: c.http.URL, Name: name, SimWorkers: 1, Poll: simPoll}
	wp := &workerProc{done: make(chan struct{})}
	if top == sessionRouter {
		wcfg.Poll = sessionPoll
		ss, err := server.New(server.Config{JobWorkers: 1, SampleInterval: -1})
		if err != nil {
			return err
		}
		ss.Start()
		wp.sessSrv, wp.sessHTTP = ss, httptest.NewServer(ss.Handler())
		wcfg.SessionsURL = wp.sessHTTP.URL
	}
	if c.fed != nil {
		wcfg.HTTPClient = &http.Client{Transport: &timedTransport{base: http.DefaultTransport, tr: tr, m: c.fed}}
		wcfg.SimDuration = c.hooks.simDuration
		wcfg.QueueWait = c.hooks.queueWait
		wcfg.BatchSize = c.hooks.batchSize
		wcfg.BatchedCells = c.hooks.batchedCells
		wcfg.SingletonCells = c.hooks.singletons
	}
	w, err := server.NewWorker(wcfg)
	if err != nil {
		wp.stopSessions()
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	wp.cancel = cancel
	go func() {
		defer close(wp.done)
		w.Run(ctx)
	}()
	c.workers = append(c.workers, wp)
	return nil
}

func (w *workerProc) stopSessions() {
	if w.sessHTTP != nil {
		w.sessHTTP.Close()
		w.sessSrv.Close()
	}
}

// close stops the workers, then the server, and waits for every
// goroutine they started.
func (c *cluster) close() {
	for _, w := range c.workers {
		w.cancel()
	}
	for _, w := range c.workers {
		<-w.done
		w.stopSessions()
	}
	c.http.Close()
	c.srv.Close()
}

// newClient is one closed-loop client: it sends its next request only
// after the previous one completed, over a single keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		IdleConnTimeout:     time.Minute,
	}}
}

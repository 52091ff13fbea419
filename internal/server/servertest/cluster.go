// Package servertest is the distributed-determinism test harness: an
// in-process paco-serve federation — one real coordinator behind a real
// HTTP listener plus N real Worker loops — compact enough to stand up
// inside a unit test and honest enough that every lease, result post,
// and retry crosses the same wire path a multi-machine deployment uses.
//
// Because every simulation in this repository is deterministic and every
// shard is content-addressed, distributed correctness is not something
// to trust — it is something to assert byte-for-byte: any worker count,
// any shard interleaving, any mid-shard worker death, any dropped result
// POST must produce output identical to a single-process run. The
// cluster exposes exactly the knobs those assertions need: start and
// kill workers at will, observe leases as they are granted, and drop
// result POSTs on the floor.
package servertest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"paco/internal/campaign"
	"paco/internal/server"
)

// Config sizes a test cluster. The zero value selects 3 workers, one
// shard per worker, and timing tuned for tests (fast polls, a lease TTL
// long enough that healthy shards never spuriously expire).
type Config struct {
	// Workers is how many worker loops New starts (default 3).
	Workers int

	// SimWorkers is each worker's local campaign pool (default 2).
	SimWorkers int

	// BatchK is each worker's batched lockstep width (0 keeps the
	// worker default; 1 disables batching). Batch width never changes
	// result bytes — the federated batching test pins this.
	BatchK int

	// Shards is the default shard count per distributed campaign
	// (default Workers).
	Shards int

	// LeaseTTL is the coordinator's re-lease timeout. The default (30s)
	// effectively disables expiry so healthy-path tests cannot flake on
	// a slow CI machine; chaos tests set it low to exercise recovery.
	LeaseTTL time.Duration

	// Poll is the workers' idle poll interval (default 2ms — tests want
	// immediate pickup).
	Poll time.Duration

	// DropResultPosts makes the next N shard-result POSTs (across all
	// workers) vanish on the wire, as if the network ate them — the
	// coordinator must recover via lease expiry.
	DropResultPosts int

	// OnLease observes every lease granted to any cluster worker, before
	// the worker starts executing it — the hook chaos tests use to kill
	// a worker provably mid-shard. Called from worker goroutines; keep
	// it quick and synchronized.
	OnLease func(worker string, lease server.ShardLease)

	// SessionWorkers gives every worker its own session-serving HTTP
	// sub-server, advertised to the coordinator through lease polls —
	// the topology the session router (Config.RouteSessions on the
	// coordinator) hashes sessions across. KillWorker then models real
	// worker death: the sub-server's connections are severed abruptly,
	// so proxied requests in flight fail at the transport.
	SessionWorkers bool

	// WorkerSessionTTL is the session-worker tables' idle TTL (default
	// 10m — comfortably above the coordinator's routed-session TTL, so
	// the coordinator's sweep owns eviction, per DESIGN.md §6b).
	WorkerSessionTTL time.Duration

	// Server overrides the coordinator configuration (Shards and lease
	// timing fields are filled from this Config when unset).
	Server server.Config
}

// Cluster is a running in-process federation.
type Cluster struct {
	t   testing.TB
	cfg Config

	// Server is the coordinator; HTTP serves its Handler.
	Server *server.Server
	HTTP   *httptest.Server

	drop *dropTransport

	mu        sync.Mutex
	campaigns map[string][]campaign.Job
	workers   map[string]*workerHandle
	nextW     int
	closed    bool
}

type workerHandle struct {
	name   string
	cancel context.CancelFunc
	done   chan struct{}

	// Session sub-server (Config.SessionWorkers only).
	sessSrv  *server.Server
	sessHTTP *httptest.Server
}

// killSessions tears the worker's session sub-server down abruptly:
// live connections (including the coordinator's proxied SSE streams)
// are severed first, so the router observes a mid-stream transport
// failure, not a graceful drain.
func (h *workerHandle) killSessions() {
	if h.sessHTTP == nil {
		return
	}
	h.sessHTTP.CloseClientConnections()
	h.sessHTTP.Close()
	h.sessSrv.Close()
}

// New starts a coordinator and cfg.Workers workers and registers
// cleanup with t. The coordinator runs at experiments.Quick scale
// unless cfg.Server says otherwise.
func New(t testing.TB, cfg Config) *Cluster {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 3
	}
	if cfg.SimWorkers == 0 {
		cfg.SimWorkers = 2
	}
	if cfg.Shards == 0 {
		cfg.Shards = cfg.Workers
	}
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.Poll == 0 {
		cfg.Poll = 2 * time.Millisecond
	}
	scfg := cfg.Server
	if scfg.Shards == 0 {
		scfg.Shards = cfg.Shards
	}
	if scfg.LeaseTTL == 0 {
		scfg.LeaseTTL = cfg.LeaseTTL
	}

	srv, err := server.New(scfg)
	if err != nil {
		t.Fatalf("servertest: building coordinator: %v", err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())

	c := &Cluster{
		t:         t,
		cfg:       cfg,
		Server:    srv,
		HTTP:      ts,
		drop:      &dropTransport{base: ts.Client().Transport, left: cfg.DropResultPosts},
		campaigns: make(map[string][]campaign.Job),
		workers:   make(map[string]*workerHandle),
	}
	for i := 0; i < cfg.Workers; i++ {
		c.StartWorker()
	}
	t.Cleanup(c.Close)
	return c
}

// URL returns the coordinator's base URL.
func (c *Cluster) URL() string { return c.HTTP.URL }

// SessionURL returns the named worker's session sub-server base URL
// (Config.SessionWorkers only; "" otherwise or for an unknown worker).
func (c *Cluster) SessionURL(worker string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if h := c.workers[worker]; h != nil && h.sessHTTP != nil {
		return h.sessHTTP.URL
	}
	return ""
}

// StartWorker adds one worker loop to the federation and returns its
// name (w1, w2, ...). Safe to call after kills to model churn.
func (c *Cluster) StartWorker() string {
	c.mu.Lock()
	c.nextW++
	name := fmt.Sprintf("w%d", c.nextW)
	c.mu.Unlock()

	wcfg := server.WorkerConfig{
		Coordinator: c.HTTP.URL,
		Name:        name,
		SimWorkers:  c.cfg.SimWorkers,
		BatchK:      c.cfg.BatchK,
		Poll:        c.cfg.Poll,
		HTTPClient:  &http.Client{Transport: c.drop},
		JobSource:   c.lookupJobs,
		OnLease: func(lease server.ShardLease) {
			if c.cfg.OnLease != nil {
				c.cfg.OnLease(name, lease)
			}
		},
	}
	var sessSrv *server.Server
	var sessHTTP *httptest.Server
	if c.cfg.SessionWorkers {
		ttl := c.cfg.WorkerSessionTTL
		if ttl == 0 {
			ttl = 10 * time.Minute
		}
		ss, err := server.New(server.Config{
			JobWorkers:     1,
			CacheBytes:     1 << 20,
			SessionTTL:     ttl,
			SampleInterval: -1,  // no sampler goroutine per worker
			FlightSpans:    256, // the worker's own session spans
		})
		if err != nil {
			c.t.Fatalf("servertest: building session server for %s: %v", name, err)
		}
		ss.Start()
		sessSrv, sessHTTP = ss, httptest.NewServer(ss.Handler())
		wcfg.SessionsURL = sessHTTP.URL
	}
	// Workers record spans and per-cell timings into the coordinator's
	// flight recorder and histograms, so one /debug/flight snapshot holds
	// the whole cluster's lease → execute → cell chain.
	c.Server.InstrumentWorker(&wcfg)
	w, err := server.NewWorker(wcfg)
	if err != nil {
		c.t.Fatalf("servertest: building worker %s: %v", name, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	h := &workerHandle{name: name, cancel: cancel, done: make(chan struct{}),
		sessSrv: sessSrv, sessHTTP: sessHTTP}
	go func() {
		defer close(h.done)
		w.Run(ctx)
	}()
	c.mu.Lock()
	c.workers[name] = h
	c.mu.Unlock()
	return name
}

// KillWorker cancels the named worker's context and waits for its loop
// to exit. A worker killed while executing a shard abandons it
// unposted; the coordinator's lease expiry re-queues the work. With
// SessionWorkers, the worker's session sub-server dies with it —
// connections severed abruptly — so routed sessions it owned must fail
// over by journal replay.
func (c *Cluster) KillWorker(name string) {
	c.mu.Lock()
	h := c.workers[name]
	delete(c.workers, name)
	c.mu.Unlock()
	if h == nil {
		c.t.Fatalf("servertest: no worker %q", name)
	}
	h.cancel()
	<-h.done
	h.killSessions()
}

// Close kills every worker and shuts the coordinator down. Registered
// with t.Cleanup by New; calling it early (e.g. to assert goroutine
// drain) is fine.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	handles := make([]*workerHandle, 0, len(c.workers))
	for _, h := range c.workers {
		handles = append(handles, h)
	}
	c.workers = map[string]*workerHandle{}
	c.mu.Unlock()
	for _, h := range handles {
		h.cancel()
	}
	for _, h := range handles {
		<-h.done
		h.killSessions()
	}
	c.HTTP.Close()
	c.Server.Close()
}

// Execute federates an arbitrary job slice across the cluster and
// returns one result per job, in job order — the exact contract of
// campaign.Run, which is why it plugs straight into
// experiments.Config.Execute to run whole paper experiments through the
// federation. The jobs stay in this process (workers resolve them
// through a shared registry); the scheduling, leasing, result transport,
// and merge all cross the real HTTP protocol.
//
// Jobs should be idempotent (standard simulation jobs are): chaos —
// lease expiry, dropped posts — can legitimately execute a shard twice.
func (c *Cluster) Execute(ctx context.Context, workers int, jobs []campaign.Job) ([]campaign.Result, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	_ = workers // execution parallelism lives in the cluster's workers
	id := c.Server.NextCampaignID()
	c.mu.Lock()
	c.campaigns[id] = jobs
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.campaigns, id)
		c.mu.Unlock()
	}()
	results, err := c.Server.Distribute(ctx, id, nil, len(jobs), c.cfg.Shards)
	if err != nil {
		return results, err
	}
	return results, campaign.FirstError(results)
}

func (c *Cluster) lookupJobs(campaignID string) []campaign.Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.campaigns[campaignID]
}

// RunGrid submits a grid through the public POST /v1/jobs path, waits
// for completion, and returns the finished job status (results
// included). With the coordinator configured for Shards > 1 this is the
// full production distributed path: submit, shard, lease, merge, cache.
func (c *Cluster) RunGrid(spec string, timeout time.Duration) (server.JobStatus, error) {
	st, err := c.post(spec)
	if err != nil {
		return st, err
	}
	deadline := time.Now().Add(timeout)
	for {
		cur, err := c.jobStatus(st.ID)
		if err != nil {
			return cur, err
		}
		switch cur.Status {
		case "done":
			return cur, nil
		case "failed":
			return cur, fmt.Errorf("job %s failed: %s", cur.ID, cur.Error)
		}
		if time.Now().After(deadline) {
			return cur, fmt.Errorf("job %s still %q after %v", cur.ID, cur.Status, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (c *Cluster) post(spec string) (server.JobStatus, error) {
	resp, err := http.Post(c.HTTP.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		return server.JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return server.JobStatus{}, fmt.Errorf("POST /v1/jobs: %s: %s", resp.Status, msg)
	}
	return decodeStatus(resp.Body)
}

func (c *Cluster) jobStatus(id string) (server.JobStatus, error) {
	resp, err := http.Get(c.HTTP.URL + "/v1/jobs/" + id)
	if err != nil {
		return server.JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return server.JobStatus{}, fmt.Errorf("GET /v1/jobs/%s: %s", id, resp.Status)
	}
	return decodeStatus(resp.Body)
}

// ResultsJSON fetches GET /v1/jobs/{id}/results — the bare result slice
// rendered exactly as campaign.WriteJSON renders it, for byte
// comparison against local runs.
func (c *Cluster) ResultsJSON(id string) ([]byte, error) {
	resp, err := http.Get(c.HTTP.URL + "/v1/jobs/" + id + "/results")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return nil, fmt.Errorf("GET /v1/jobs/%s/results: %s", id, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// Flight fetches GET /debug/flight, optionally filtered (kind, trace,
// limit — zero values mean no filter).
func (c *Cluster) Flight(kind, trace string, limit int) (server.FlightReport, error) {
	q := url.Values{}
	if kind != "" {
		q.Set("kind", kind)
	}
	if trace != "" {
		q.Set("trace", trace)
	}
	if limit > 0 {
		q.Set("limit", fmt.Sprint(limit))
	}
	u := c.HTTP.URL + "/debug/flight"
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	var report server.FlightReport
	resp, err := http.Get(u)
	if err != nil {
		return report, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return report, fmt.Errorf("GET /debug/flight: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&report)
	return report, err
}

// Metrics fetches the coordinator's /metrics text.
func (c *Cluster) Metrics() (string, error) {
	resp, err := http.Get(c.HTTP.URL + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}

func decodeStatus(r io.Reader) (server.JobStatus, error) {
	var st server.JobStatus
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return server.JobStatus{}, err
	}
	return st, nil
}

// dropTransport eats the first N shard-result POSTs, simulating a
// network that delivered the request into the void. Everything else
// passes through.
type dropTransport struct {
	base http.RoundTripper

	mu   sync.Mutex
	left int
}

func (d *dropTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPost && strings.HasSuffix(req.URL.Path, "/result") {
		d.mu.Lock()
		drop := d.left > 0
		if drop {
			d.left--
		}
		d.mu.Unlock()
		if drop {
			if req.Body != nil {
				req.Body.Close()
			}
			return nil, errors.New("servertest: result POST dropped by chaos transport")
		}
	}
	base := d.base
	if base == nil {
		base = http.DefaultTransport
	}
	return base.RoundTrip(req)
}

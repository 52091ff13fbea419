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
	"net/url"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"paco/internal/campaign"
	"paco/internal/obs"
)

// Worker is the client side of the shard federation: a loop that leases
// shards from a coordinator, executes them on a local campaign pool, and
// posts globally indexed results back. cmd/paco-serve runs one per
// process in -coordinator mode; servertest runs several in-process to
// prove distributed determinism.
type Worker struct {
	cfg        WorkerConfig
	client     *http.Client
	shardsDone atomic.Uint64
	cellsDone  atomic.Uint64
}

// WorkerConfig configures a federation worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (e.g. "http://host:8344").
	Coordinator string

	// Name identifies the worker to the coordinator (liveness and
	// attribution). Empty selects "hostname-pid".
	Name string

	// SimWorkers is the local campaign pool each shard runs on (<= 0
	// selects runtime.GOMAXPROCS(0)). Worker count never changes result
	// bytes — the campaign engine's core guarantee.
	SimWorkers int

	// BatchK is the batched lockstep width shards execute with (<= 0
	// selects campaign.DefaultBatchK; 1 disables batching). Like worker
	// count, batch width never changes result bytes.
	BatchK int

	// Poll is how long to sleep when the coordinator has no work
	// (default 500ms).
	Poll time.Duration

	// SessionsURL, when nonempty, is the base URL of a session-serving
	// HTTP endpoint this process exposes (paco-serve -sessions-addr).
	// The worker advertises it in every lease poll, which doubles as the
	// heartbeat a session-routing coordinator uses to pick live owners.
	SessionsURL string

	// HTTPClient overrides the transport (tests inject chaos here).
	HTTPClient *http.Client

	// OnLease, when non-nil, observes every granted lease before
	// execution starts — the hook chaos tests use to kill a worker
	// provably mid-shard.
	OnLease func(ShardLease)

	// Log receives structured operational messages (nil discards them).
	Log *slog.Logger

	// Recorder, when non-nil, collects the worker's shard-execution and
	// per-cell spans under the trace ID each lease carries. In-process
	// federations share the coordinator's recorder (see
	// Server.InstrumentWorker) so one flight recorder holds the whole
	// cluster's chain.
	Recorder *obs.Recorder

	// SimDuration and QueueWait, when non-nil, observe per-cell
	// simulate seconds and queue-wait seconds for every cell this
	// worker executes.
	SimDuration *obs.Histogram
	QueueWait   *obs.Histogram

	// BatchSize, BatchedCells, and SingletonCells, when non-nil, record
	// the batched-execution shape of every shard this worker runs (see
	// campaign.Runner's fields of the same names).
	BatchSize      *obs.Histogram
	BatchedCells   *obs.Counter
	SingletonCells *obs.Counter
}

// NewWorker validates the configuration and builds a worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, errors.New("server: worker needs a coordinator URL")
	}
	cfg.Coordinator = strings.TrimRight(cfg.Coordinator, "/")
	if cfg.Name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		cfg.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if cfg.SimWorkers <= 0 {
		cfg.SimWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.BatchK <= 0 {
		cfg.BatchK = campaign.DefaultBatchK
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 500 * time.Millisecond
	}
	cfg.Log = obs.OrNop(cfg.Log)
	client := cfg.HTTPClient
	if client == nil {
		client = &http.Client{}
	}
	return &Worker{cfg: cfg, client: client}, nil
}

// Name reports the identity the worker leases under.
func (w *Worker) Name() string { return w.cfg.Name }

// ShardsDone reports how many shards this worker completed and posted.
func (w *Worker) ShardsDone() uint64 { return w.shardsDone.Load() }

// Run leases and executes shards until ctx is cancelled; it returns
// ctx.Err(). A shard in flight when ctx falls is abandoned unposted —
// in-flight cells observe the cancellation, and the coordinator's lease
// expiry re-queues the shard — which is exactly the worker-death path
// the chaos tests exercise.
func (w *Worker) Run(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		lease, ok, err := w.lease(ctx)
		if err != nil {
			w.cfg.Log.Warn("lease request failed", "worker", w.cfg.Name, "error", err)
			if !w.sleep(ctx) {
				return ctx.Err()
			}
			continue
		}
		if !ok {
			if !w.sleep(ctx) {
				return ctx.Err()
			}
			continue
		}
		if w.cfg.OnLease != nil {
			w.cfg.OnLease(lease)
		}
		w.runLease(ctx, lease)
	}
}

func (w *Worker) sleep(ctx context.Context) bool {
	select {
	case <-time.After(w.cfg.Poll):
		return true
	case <-ctx.Done():
		return false
	}
}

// runLease executes one leased shard and posts its outcome. Execution
// errors inside cells travel in the results (determinism: the same cell
// fails identically anywhere); only infrastructure problems — a lease
// without a grid, a range outside it — are posted as shard errors so the
// coordinator re-queues.
func (w *Worker) runLease(ctx context.Context, lease ShardLease) {
	// Renew the lease at TTL/3 while executing, so the coordinator can
	// tell a slow shard from a dead worker: a shard may legitimately
	// simulate for many multiples of the TTL. A killed worker's renewal
	// loop dies with ctx, which is exactly what lets expiry re-queue its
	// shard.
	renewCtx, stopRenew := context.WithCancel(ctx)
	defer stopRenew()
	if ttl := time.Duration(lease.TTLMS) * time.Millisecond; ttl > 0 {
		go w.renewLoop(renewCtx, lease, ttl/3)
	}
	// The execute span parents to the coordinator's lease span (ID
	// shipped in the lease), so a shared or merged flight recorder shows
	// job → shard.lease → shard.execute → cell as one chain.
	span := w.cfg.Recorder.Start(lease.Trace, "shard.execute", short(lease.ShardID), lease.Span)
	span.Set("worker", w.cfg.Name)
	span.Set("cells", strconv.Itoa(lease.Hi-lease.Lo))
	// The global cell range lets the campaign report attribute merged
	// results (and their simulated cycles) back to this worker.
	span.Set("lo", strconv.Itoa(lease.Lo))
	span.Set("hi", strconv.Itoa(lease.Hi))
	results, infraErr := w.execute(ctx, lease, span.ID())
	if ctx.Err() != nil {
		// Killed mid-shard: abandon unposted; the lease will expire.
		span.End("abandoned: " + ctx.Err().Error())
		return
	}
	post := ShardResultPost{LeaseID: lease.LeaseID, Worker: w.cfg.Name, Results: results}
	if infraErr != nil {
		post = ShardResultPost{LeaseID: lease.LeaseID, Worker: w.cfg.Name, Error: infraErr.Error()}
		w.cfg.Log.Warn("shard infrastructure failure", "worker", w.cfg.Name,
			"shard", short(lease.ShardID), "trace", lease.Trace, "error", infraErr)
	}
	span.End(obs.ErrString(infraErr))
	if err := w.postResult(ctx, lease, post); err != nil {
		// Dropped POST: the coordinator's lease expiry re-runs the shard;
		// re-running is free of harm by determinism.
		w.cfg.Log.Warn("posting shard result failed", "worker", w.cfg.Name,
			"shard", short(lease.ShardID), "trace", lease.Trace, "error", err)
		return
	}
	if infraErr == nil {
		w.shardsDone.Add(1)
		w.cellsDone.Add(uint64(len(results)))
		w.cfg.Log.Info("shard done", "worker", w.cfg.Name,
			"shard", short(lease.ShardID), "trace", lease.Trace, "cells", len(results))
	}
}

// execute runs the lease's shard of its grid, with results indexed in
// the grid's global cell space. parent is the worker's execute span,
// which the campaign's per-cell spans parent to.
func (w *Worker) execute(ctx context.Context, lease ShardLease, parent uint64) ([]campaign.Result, error) {
	if lease.Grid == nil {
		return nil, errors.New("lease carries no grid")
	}
	runner := &campaign.Runner{
		Workers:        w.cfg.SimWorkers,
		BatchK:         w.cfg.BatchK,
		SimDuration:    w.cfg.SimDuration,
		QueueWait:      w.cfg.QueueWait,
		Recorder:       w.cfg.Recorder,
		Trace:          lease.Trace,
		Parent:         parent,
		BatchSize:      w.cfg.BatchSize,
		BatchedCells:   w.cfg.BatchedCells,
		SingletonCells: w.cfg.SingletonCells,
	}
	shard := campaign.Shard{Grid: *lease.Grid, Lo: lease.Lo, Hi: lease.Hi}
	results, err := shard.Run(ctx, runner)
	if results == nil {
		return nil, err
	}
	// Cell failures ride in the results; the campaign-level first-failure
	// error is recomputed by the coordinator after the merge.
	return results, nil
}

// renewLoop posts lease renewals until ctx falls. A failed or rejected
// renewal is only logged: if the lease really was lost, the shard's
// result post resolves it (first complete result wins).
func (w *Worker) renewLoop(ctx context.Context, lease ShardLease, every time.Duration) {
	if every < time.Millisecond {
		every = time.Millisecond
	}
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		body, _ := json.Marshal(ShardRenewal{LeaseID: lease.LeaseID, Worker: w.cfg.Name})
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			fmt.Sprintf("%s/v1/shards/%s/renew", w.cfg.Coordinator, url.PathEscape(lease.ShardID)),
			bytes.NewReader(body))
		if err != nil {
			return
		}
		req.Header.Set("Content-Type", "application/json")
		if lease.Trace != "" {
			req.Header.Set(obs.TraceHeader, lease.Trace)
		}
		resp, err := w.client.Do(req)
		if err != nil {
			if ctx.Err() == nil {
				w.cfg.Log.Warn("renewing shard failed", "worker", w.cfg.Name,
					"shard", short(lease.ShardID), "trace", lease.Trace, "error", err)
			}
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

func (w *Worker) lease(ctx context.Context) (ShardLease, bool, error) {
	body, _ := json.Marshal(LeaseRequest{Worker: w.cfg.Name, SessionsURL: w.cfg.SessionsURL})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.cfg.Coordinator+"/v1/shards/lease", bytes.NewReader(body))
	if err != nil {
		return ShardLease{}, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return ShardLease{}, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		io.Copy(io.Discard, resp.Body)
		return ShardLease{}, false, nil
	case http.StatusOK:
		var lease ShardLease
		if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
			return ShardLease{}, false, fmt.Errorf("decoding lease: %w", err)
		}
		if h := resp.Header.Get(obs.TraceHeader); h != "" {
			// The response header is the authoritative trace: it travels
			// even when a proxy rewrites or an older coordinator omits the
			// body field.
			lease.Trace = h
		}
		return lease, true, nil
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return ShardLease{}, false, fmt.Errorf("lease request: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
}

func (w *Worker) postResult(ctx context.Context, lease ShardLease, post ShardResultPost) error {
	body, err := json.Marshal(post)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		fmt.Sprintf("%s/v1/shards/%s/result", w.cfg.Coordinator, url.PathEscape(lease.ShardID)), bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if lease.Trace != "" {
		req.Header.Set(obs.TraceHeader, lease.Trace)
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode == http.StatusGone {
		// Someone else completed the shard first; that is success. (A
		// plain 404 would mean a broken URL and is treated as an error.)
		return nil
	}
	if resp.StatusCode >= 400 {
		return fmt.Errorf("result post: %s", resp.Status)
	}
	return nil
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"paco/internal/campaign"
	"paco/internal/obs"
)

// testObs is the minimal serverObs a bare federation needs: a recorder
// for lease spans, a nop logger, and the lookup counter. Scrape-backed
// families are irrelevant here, so no full Server is constructed.
func testObs() *serverObs {
	r := obs.NewRegistry()
	return &serverObs{
		reg: r,
		rec: obs.NewRecorder(0),
		log: obs.NopLogger(),
		cacheLookups: r.CounterVec("paco_cache_lookups_total",
			"Content-addressed lookups by kind and outcome.", "kind", "outcome"),
	}
}

func testFederation(ttl time.Duration, retryLimit int) *federation {
	cache, _ := NewCache(1<<20, "")
	return newFederation(ttl, time.Minute, retryLimit, cache, testObs())
}

// tinyGrid is a normalized grid of n 2,000-instruction cells, one per
// refresh period: the protocol tests post fake results for it, and a
// real worker runs it in milliseconds.
func tinyGrid(t *testing.T, n int) *campaign.Grid {
	t.Helper()
	g := campaign.Grid{Benchmarks: []string{"gzip"}, Instructions: 2000, Warmup: 500}
	for i := 1; i <= n; i++ {
		g.Refresh = append(g.Refresh, uint64(i)*100_000)
	}
	norm, err := g.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Size() != n {
		t.Fatalf("tiny grid has %d cells, want %d", norm.Size(), n)
	}
	return &norm
}

// fakeResults builds a plausible shard result slice for cells [lo, hi).
func fakeResults(lo, hi int) []campaign.Result {
	out := make([]campaign.Result, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, campaign.Result{Index: i, JobID: "cell", Cycles: uint64(i)})
	}
	return out
}

// TestFederationLeaseProtocol walks the happy path at the protocol
// level: distribute queues shards, leases carry the grid, range and
// shard content address, posting completes, and the merged results come
// back globally ordered.
func TestFederationLeaseProtocol(t *testing.T) {
	f := testFederation(time.Minute, 3)
	grid := tinyGrid(t, 5)
	shards, err := grid.Shards(2)
	if err != nil {
		t.Fatal(err)
	}
	type done struct {
		results []campaign.Result
		err     error
	}
	doneCh := make(chan done, 1)
	go func() {
		results, err := f.distribute(context.Background(), "", 0, grid, 2, nil)
		doneCh <- done{results, err}
	}()

	// Two shards: [0,3) and [3,5).
	var leases []ShardLease
	for len(leases) < 2 {
		if lease, ok := f.lease(LeaseRequest{Worker: "w1"}); ok {
			leases = append(leases, lease)
		} else {
			time.Sleep(time.Millisecond)
		}
	}
	if leases[0].Lo != 0 || leases[0].Hi != 3 || leases[1].Lo != 3 || leases[1].Hi != 5 {
		t.Fatalf("lease ranges %+v, want [0,3) and [3,5)", leases)
	}
	for i, lease := range leases {
		if lease.Grid == nil || lease.ShardID != shards[i].ID() {
			t.Fatalf("lease %d: grid %v, shard %s; want the grid and shard %s", i, lease.Grid, lease.ShardID, shards[i].ID())
		}
	}
	if _, ok := f.lease(LeaseRequest{Worker: "w2"}); ok {
		t.Fatal("a third lease appeared for a 2-shard campaign")
	}

	// Post out of order; merge must still be globally ordered.
	if code, msg := f.result(leases[1].ShardID, ShardResultPost{
		LeaseID: leases[1].LeaseID, Worker: "w1", Results: fakeResults(3, 5),
	}); code != 200 {
		t.Fatalf("posting shard 1: %d %s", code, msg)
	}
	if code, msg := f.result(leases[0].ShardID, ShardResultPost{
		LeaseID: leases[0].LeaseID, Worker: "w1", Results: fakeResults(0, 3),
	}); code != 200 {
		t.Fatalf("posting shard 0: %d %s", code, msg)
	}
	out := <-doneCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	for i, r := range out.results {
		if r.Index != i {
			t.Fatalf("merged results out of order: %+v", out.results)
		}
	}
	// Duplicate post: benign 410.
	if code, _ := f.result(leases[0].ShardID, ShardResultPost{Worker: "w2", Results: fakeResults(0, 3)}); code != 410 {
		t.Fatalf("duplicate post returned %d, want 410", code)
	}
}

// TestShardCacheCompletesWithoutLease: shards are individually
// content-addressed, so a campaign whose shards already ran completes
// from the shard cache without granting a single new lease, and merges
// the same results.
func TestShardCacheCompletesWithoutLease(t *testing.T) {
	f := testFederation(time.Minute, 3)
	grid := tinyGrid(t, 5)
	type done struct {
		results []campaign.Result
		err     error
	}
	firstCh := make(chan done, 1)
	go func() {
		results, err := f.distribute(context.Background(), "", 0, grid, 2, nil)
		firstCh <- done{results, err}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for posted := 0; posted < 2; {
		lease, ok := f.lease(LeaseRequest{Worker: "w1"})
		if !ok {
			select {
			case out := <-firstCh:
				t.Fatalf("distribute returned after %d of 2 shards: %v", posted, out.err)
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("only %d of 2 shards leased before the deadline", posted)
			}
			time.Sleep(time.Millisecond)
			continue
		}
		if code, msg := f.result(lease.ShardID, ShardResultPost{
			LeaseID: lease.LeaseID, Worker: "w1", Results: fakeResults(lease.Lo, lease.Hi),
		}); code != 200 {
			t.Fatalf("posting shard [%d,%d): %d %s", lease.Lo, lease.Hi, code, msg)
		}
		posted++
	}
	out := <-firstCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	first := out.results
	completed := f.stats().ShardsCompleted
	if completed != 2 {
		t.Fatalf("first campaign completed %d shards, want 2", completed)
	}
	second, err := f.distribute(context.Background(), "", 0, grid, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.stats().ShardsCompleted; got != completed {
		t.Fatalf("second campaign re-leased cached shards: %d -> %d", completed, got)
	}
	if _, ok := f.lease(LeaseRequest{Worker: "w2"}); ok {
		t.Fatal("a cached campaign left a shard to lease")
	}
	var a, b bytes.Buffer
	campaign.WriteJSON(&a, first)
	campaign.WriteJSON(&b, second)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("cached shard results differ from the executed run")
	}
}

// TestFederationExpiryRetriesAndFailure: a silent worker's lease expires
// and the shard re-leases (jumping the queue) with the retry counter
// advancing; exhausting the retry limit fails the campaign with a
// descriptive error.
func TestFederationExpiryRetriesAndFailure(t *testing.T) {
	const ttl = 5 * time.Millisecond
	f := testFederation(ttl, 2)
	grid := tinyGrid(t, 2)
	errCh := make(chan error, 1)
	go func() {
		_, err := f.distribute(context.Background(), "", 0, grid, 1, nil)
		errCh <- err
	}()

	deadline := time.Now().Add(10 * time.Second)
	var leases int
	for {
		if lease, ok := f.lease(LeaseRequest{Worker: "flaky"}); ok {
			leases++
			if lease.Lo != 0 || lease.Hi != 2 {
				t.Fatalf("re-leased shard changed range: %+v", lease)
			}
			// Never post: every lease must expire.
		}
		select {
		case err := <-errCh:
			if err == nil {
				t.Fatal("campaign succeeded though no shard was ever posted")
			}
			if !strings.Contains(err.Error(), "exceeded 2 retries") || !strings.Contains(err.Error(), "flaky") {
				t.Fatalf("campaign error %q does not describe the retry exhaustion", err)
			}
			if got := f.stats().Retries; got < 2 {
				t.Fatalf("retries counter = %d, want >= 2", got)
			}
			if leases < 2 {
				t.Fatalf("shard was leased %d times, want >= 2 (expiry re-lease)", leases)
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign did not fail within 10s")
		}
		time.Sleep(ttl)
	}
}

// TestFederationRenewalKeepsSlowShardAlive: a worker renewing its lease
// holds a shard for many multiples of the TTL without expiry — so a
// slow shard is distinguishable from a dead worker, and only the
// latter burns retries.
func TestFederationRenewalKeepsSlowShardAlive(t *testing.T) {
	const ttl = 40 * time.Millisecond
	f := testFederation(ttl, 2)
	grid := tinyGrid(t, 2)
	type done struct {
		results []campaign.Result
		err     error
	}
	doneCh := make(chan done, 1)
	go func() {
		results, err := f.distribute(context.Background(), "", 0, grid, 1, nil)
		doneCh <- done{results, err}
	}()
	var lease ShardLease
	for {
		var ok bool
		if lease, ok = f.lease(LeaseRequest{Worker: "slowpoke"}); ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// Simulate a shard that runs 5x the TTL, renewing at TTL/3.
	deadline := time.Now().Add(5 * ttl)
	for time.Now().Before(deadline) {
		time.Sleep(ttl / 3)
		if code, msg := f.renew(lease.ShardID, ShardRenewal{LeaseID: lease.LeaseID, Worker: "slowpoke"}); code != 200 {
			t.Fatalf("renewal rejected: %d %s", code, msg)
		}
		// Another worker checking in triggers lazy expiry; the renewed
		// lease must never be re-queued.
		if stolen, ok := f.lease(LeaseRequest{Worker: "other"}); ok {
			t.Fatalf("renewed shard was re-leased to another worker: %+v", stolen)
		}
	}
	if code, msg := f.result(lease.ShardID, ShardResultPost{
		LeaseID: lease.LeaseID, Worker: "slowpoke", Results: fakeResults(0, 2),
	}); code != 200 {
		t.Fatalf("posting after renewals: %d %s", code, msg)
	}
	out := <-doneCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	if got := f.stats().Retries; got != 0 {
		t.Fatalf("slow-but-renewing shard burned %d retries, want 0", got)
	}
	// After completion the lease is gone: renewal reports 410.
	if code, _ := f.renew(lease.ShardID, ShardRenewal{LeaseID: lease.LeaseID, Worker: "slowpoke"}); code != 410 {
		t.Fatalf("renewal of a completed shard returned %d, want 410", code)
	}
}

// TestFederationMalformedResultRequeues: a result post whose cell count
// does not match the shard range is rejected (422) and the shard is
// re-queued for immediate re-lease.
func TestFederationMalformedResultRequeues(t *testing.T) {
	f := testFederation(time.Minute, 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // unblocks the distribute goroutine at test end
	go f.distribute(ctx, "", 0, tinyGrid(t, 4), 1, nil)

	var lease ShardLease
	for {
		var ok bool
		if lease, ok = f.lease(LeaseRequest{Worker: "w1"}); ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if code, _ := f.result(lease.ShardID, ShardResultPost{
		LeaseID: lease.LeaseID, Worker: "w1", Results: fakeResults(0, 2),
	}); code != 422 {
		t.Fatalf("short result post returned %d, want 422", code)
	}
	release, ok := f.lease(LeaseRequest{Worker: "w2"})
	if !ok {
		t.Fatal("shard was not re-queued after the malformed post")
	}
	if release.ShardID != lease.ShardID {
		t.Fatalf("re-lease handed out %s, want %s", release.ShardID, lease.ShardID)
	}
	if f.stats().Retries != 1 {
		t.Fatalf("retries = %d, want 1", f.stats().Retries)
	}
}

// TestShardEndpointsHTTP exercises the worker protocol over real HTTP:
// empty queue -> 204, broken result URL -> routing 404 (json error),
// unknown shard -> 410.
func TestShardEndpointsHTTP(t *testing.T) {
	_, ts := testServer(t, Config{})

	resp, err := http.Post(ts.URL+"/v1/shards/lease", "application/json", strings.NewReader(`{"worker":"w1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("lease on an idle coordinator: %d, want 204", resp.StatusCode)
	}

	body := strings.NewReader(`{"lease_id":"l-1","worker":"w1","results":[]}`)
	resp, err = http.Post(ts.URL+"/v1/shards/nope/result", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("unknown shard post: %d, want 410", resp.StatusCode)
	}
	var msg map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
		t.Fatalf("410 body not JSON: %v", err)
	}
}

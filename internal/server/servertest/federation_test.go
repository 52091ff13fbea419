package servertest_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"paco/internal/campaign"
	"paco/internal/server"
	"paco/internal/server/servertest"
)

// gridSpec is the sweep the topology tests distribute: 2 benchmarks x 2
// widths = 4 cells, small enough to run many topologies.
const gridSpec = `{"benchmarks":["gzip","twolf"],"instructions":12000,"warmup":4000,"widths":[2,4]}`

// localResultsJSON runs the spec's grid in-process — the single-process
// golden every distributed run must reproduce byte for byte.
func localResultsJSON(t *testing.T, spec string, workers int) []byte {
	t.Helper()
	var grid campaign.Grid
	if err := json.Unmarshal([]byte(spec), &grid); err != nil {
		t.Fatal(err)
	}
	norm, err := grid.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	results, err := campaign.Run(context.Background(), workers, norm.Jobs())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := campaign.WriteJSON(&buf, results); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFederatedGridByteIdenticalAnyTopology is the tentpole assertion:
// the same grid submitted through the full production path (POST
// /v1/jobs -> shard -> lease over HTTP -> merge) produces byte-identical
// results at every worker count and shard plan, including plans with
// more shards than workers and more workers than shards.
func TestFederatedGridByteIdenticalAnyTopology(t *testing.T) {
	want := localResultsJSON(t, gridSpec, 2)
	for _, tc := range []struct{ workers, shards int }{
		{1, 1},
		{1, 3},
		{2, 2},
		{3, 4},
		{4, 2},
		{3, 99}, // trimmed to one shard per cell
	} {
		t.Run(fmt.Sprintf("w%d-s%d", tc.workers, tc.shards), func(t *testing.T) {
			c := servertest.New(t, servertest.Config{Workers: tc.workers, Shards: tc.shards})
			st, err := c.RunGrid(gridSpec, 30*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if st.Cache != "miss" {
				t.Fatalf("first submission: cache = %q, want miss", st.Cache)
			}
			got, err := c.ResultsJSON(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("federated results differ from the single-process run:\n got: %.200s\nwant: %.200s", got, want)
			}
			// The distributed result lands in the same content-addressed
			// cache the local path uses: an identical re-submission is a
			// pure hit, no leases granted.
			leased := c.Server.FederationStats().ShardsCompleted
			again, err := c.RunGrid(gridSpec, 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if again.Cache != "hit" {
				t.Fatalf("re-submission: cache = %q, want hit", again.Cache)
			}
			if done := c.Server.FederationStats().ShardsCompleted; done != leased {
				t.Fatalf("re-submission leased new shards: %d -> %d", leased, done)
			}
		})
	}
}

// TestShardCacheCompletesWithoutLease: shards are individually
// content-addressed, so a campaign whose shards already ran — here via a
// direct Distribute that bypasses the whole-job cache — completes from
// the shard cache without granting a single new lease.
func TestShardCacheCompletesWithoutLease(t *testing.T) {
	c := servertest.New(t, servertest.Config{Workers: 2, Shards: 2})
	var grid campaign.Grid
	if err := json.Unmarshal([]byte(gridSpec), &grid); err != nil {
		t.Fatal(err)
	}
	norm, err := grid.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.Server.Distribute(context.Background(), norm, 2)
	if err != nil {
		t.Fatal(err)
	}
	completed := c.Server.FederationStats().ShardsCompleted
	if completed == 0 {
		t.Fatal("first Distribute granted no leases")
	}
	second, err := c.Server.Distribute(context.Background(), norm, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Server.FederationStats().ShardsCompleted; got != completed {
		t.Fatalf("second Distribute re-leased cached shards: %d -> %d", completed, got)
	}
	var a, b bytes.Buffer
	campaign.WriteJSON(&a, first)
	campaign.WriteJSON(&b, second)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("cached shard results differ from the executed run")
	}
}

// chaosSpec is the 12-cell grid the chaos test distributes: small
// enough to run quickly under -race, large enough for six 2-cell shards.
const chaosSpec = `{"benchmarks":["gzip","twolf","gcc"],"instructions":20000,"warmup":5000,` +
	`"widths":[2,4],"prob_gates":[0.3,0.5]}`

// TestChaosWorkerDeathAndDroppedPost kills a worker mid-shard AND drops
// a result POST on the wire, then asserts the coordinator re-leases the
// lost shards, the merged report is byte-identical to an undisturbed
// local run, the retries are visible in the federation counters, and —
// reusing the drain_test discipline — no goroutines leak.
func TestChaosWorkerDeathAndDroppedPost(t *testing.T) {
	before := runtime.NumGoroutine()
	want := localResultsJSON(t, chaosSpec, 1)

	var mu sync.Mutex
	var victim, victimShard string
	leasedTo := make(map[string][]string) // shard ID -> workers, in lease order
	firstLease := make(chan string, 1)
	c := servertest.New(t, servertest.Config{
		Workers:         3,
		SimWorkers:      1,
		Shards:          6,
		LeaseTTL:        100 * time.Millisecond,
		DropResultPosts: 1,
		OnLease: func(ctx context.Context, worker string, lease server.ShardLease) {
			mu.Lock()
			leasedTo[lease.ShardID] = append(leasedTo[lease.ShardID], worker)
			first := victim == ""
			if first {
				victim, victimShard = worker, lease.ShardID
			}
			mu.Unlock()
			if first {
				// Hold the victim between its lease and its result until
				// it is killed, so it provably dies mid-shard.
				firstLease <- worker
				<-ctx.Done()
			}
		},
	})

	type outcome struct {
		st  server.JobStatus
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		st, err := c.RunGrid(chaosSpec, 60*time.Second)
		done <- outcome{st, err}
	}()

	select {
	case name := <-firstLease:
		c.KillWorker(name)
	case <-time.After(10 * time.Second):
		t.Fatal("no lease was granted within 10s")
	}

	var out outcome
	select {
	case out = <-done:
	case <-time.After(90 * time.Second):
		t.Fatal("federated campaign did not finish after the chaos")
	}
	if out.err != nil {
		t.Fatalf("federated campaign failed: %v", out.err)
	}

	// The report must be exactly what an undisturbed single-process run
	// produces.
	got, err := c.ResultsJSON(out.st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("chaos changed the report:\n got: %.300s\nwant: %.300s", got, want)
	}

	// Both failure injections must actually have bitten: the killed
	// worker's lease and the dropped POST each force a re-lease.
	if stats := c.Server.FederationStats(); stats.Retries < 2 {
		t.Fatalf("federation retries = %d, want >= 2 (worker death + dropped POST)", stats.Retries)
	}
	mu.Lock()
	holders := leasedTo[victimShard]
	mu.Unlock()
	if len(holders) < 2 || holders[len(holders)-1] == victim {
		t.Fatalf("victim %s's shard was leased to %v, want a re-lease to another worker", victim, holders)
	}

	// Everything must drain: workers, coordinator pool, HTTP server.
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if now := runtime.NumGoroutine(); now <= before+2 {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines did not drain: before=%d now=%d", before, now)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFederationMetrics: after a distributed run the coordinator's
// /metrics expose live workers, completed shards, and retry counters —
// the lines the CI federation smoke greps.
func TestFederationMetrics(t *testing.T) {
	c := servertest.New(t, servertest.Config{Workers: 2, Shards: 2})
	if _, err := c.RunGrid(gridSpec, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"paco_federation_workers_live 2",
		"paco_federation_shards_completed_total 2",
		"paco_federation_shard_retries_total 0",
		`paco_federation_worker_last_seen_seconds{worker="w1"}`,
		`paco_federation_worker_last_seen_seconds{worker="w2"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestFederatedBatchedByteIdentical composes the batched lockstep path
// with federation and chaos: a refresh-axis sweep — heavily batchable,
// every cell replays one benchmark stream — runs through the full
// production path (POST /v1/jobs -> shard -> lease -> merge) on workers
// executing at several batch widths, with one shard-result POST eaten
// by the network so a lease must expire and re-run. The merged report
// must still reproduce the single-process unbatched golden byte for
// byte: batching changes scheduling, never cell content.
func TestFederatedBatchedByteIdentical(t *testing.T) {
	const spec = `{"benchmarks":["gzip"],"refresh":[50000,100000,200000,400000],` +
		`"prob_gates":[0.3],"instructions":12000,"warmup":4000}`
	want := localResultsJSON(t, spec, 2)
	for _, batchK := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("batch%d", batchK), func(t *testing.T) {
			c := servertest.New(t, servertest.Config{
				Workers:         2,
				Shards:          3,
				BatchK:          batchK,
				DropResultPosts: 1,
				LeaseTTL:        150 * time.Millisecond,
			})
			st, err := c.RunGrid(spec, 60*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.ResultsJSON(st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("batch=%d federated results differ from the unbatched single-process run:\n got: %.200s\nwant: %.200s",
					batchK, got, want)
			}
		})
	}
}

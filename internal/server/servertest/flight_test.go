package servertest_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"paco/internal/obs"
	"paco/internal/server"
	"paco/internal/server/servertest"
)

// TestFederatedFlightTrace reconstructs a distributed sweep's full span
// chain from one /debug/flight snapshot: the job span at the root, one
// coordinator-side shard.lease span per shard under it, one worker-side
// shard.execute span under each lease, and every simulated cell under
// an execute span — all carrying the job's trace ID, with nothing left
// active once the job settles. This is the observability contract for
// the federation: a single coordinator endpoint explains where every
// cell of a sharded sweep actually ran.
func TestFederatedFlightTrace(t *testing.T) {
	c := servertest.New(t, servertest.Config{Workers: 2, Shards: 2})
	st, err := c.RunGrid(gridSpec, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Trace == "" {
		t.Fatal("federated job status carries no trace ID")
	}

	report, err := c.Flight("", st.Trace, 0)
	if err != nil {
		t.Fatal(err)
	}
	byKind := map[string][]obs.SpanRecord{}
	byID := map[uint64]obs.SpanRecord{}
	for _, sp := range report.Spans {
		if sp.Trace != st.Trace {
			t.Fatalf("span %s/%s carries trace %q, want %q", sp.Kind, sp.Name, sp.Trace, st.Trace)
		}
		byKind[sp.Kind] = append(byKind[sp.Kind], sp)
		byID[sp.ID] = sp
	}

	jobs := byKind["job"]
	if len(jobs) != 1 {
		t.Fatalf("%d job spans for trace %s, want 1", len(jobs), st.Trace)
	}
	root := jobs[0]
	if root.Err != "" {
		t.Fatalf("job span ended with error %q", root.Err)
	}

	leases := byKind["shard.lease"]
	if len(leases) != 2 {
		t.Fatalf("%d shard.lease spans, want 2 (one per shard):\n%+v", len(leases), leases)
	}
	executesByParent := map[uint64]obs.SpanRecord{}
	for _, ex := range byKind["shard.execute"] {
		executesByParent[ex.Parent] = ex
	}
	for _, lease := range leases {
		if lease.Parent != root.ID {
			t.Errorf("lease span %s parented to %d, want job span %d", lease.Name, lease.Parent, root.ID)
		}
		if lease.Err != "" {
			t.Errorf("lease span %s ended with %q, want clean completion", lease.Name, lease.Err)
		}
		if lease.Attr("worker") == "" {
			t.Errorf("lease span %s records no worker attr", lease.Name)
		}
		ex, ok := executesByParent[lease.ID]
		if !ok {
			t.Errorf("lease span %s (id %d) has no worker-side shard.execute span", lease.Name, lease.ID)
			continue
		}
		if ex.Err != "" {
			t.Errorf("execute span %s ended with %q", ex.Name, ex.Err)
		}
		if got, want := ex.Attr("worker"), lease.Attr("worker"); got != want {
			t.Errorf("execute span %s ran on %q but the lease went to %q", ex.Name, got, want)
		}
	}

	// Every cell of the 4-cell grid must appear under one of the worker
	// execute spans — directly for singleton cells, or through the
	// "batch" span the batched-lockstep runner interposes when several
	// cells share one instruction stream.
	cells := byKind["cell"]
	if len(cells) != 4 {
		t.Fatalf("%d cell spans, want 4:\n%+v", len(cells), cells)
	}
	for _, cell := range cells {
		parent, ok := byID[cell.Parent]
		if ok && parent.Kind == "batch" {
			parent, ok = byID[parent.Parent]
		}
		if !ok || parent.Kind != "shard.execute" {
			t.Errorf("cell %s parented to %d (%s), want a shard.execute span (directly or via a batch span)",
				cell.Name, cell.Parent, parent.Kind)
		}
	}

	if report.Active != 0 {
		t.Errorf("%d spans still active after the job settled", report.Active)
	}

	// Workers record into the coordinator's histograms (InstrumentWorker),
	// so the per-cell duration count equals the cells simulated even
	// though no cell ran in the coordinator's process.
	metrics, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "paco_sim_cell_duration_seconds_count 4") {
		t.Errorf("coordinator cell-duration histogram did not observe the cluster's 4 cells")
	}
	if !strings.Contains(metrics, "paco_sim_cell_queue_wait_seconds_count 4") {
		t.Errorf("coordinator queue-wait histogram did not observe the cluster's 4 cells")
	}
}

// TestFlightRetryCause drives the chaos path — a worker killed
// mid-shard — and asserts the flight recorder explains the recovery:
// the abandoned attempt's lease span ends annotated with a retry
// cause, and the re-leased attempt completes cleanly.
func TestFlightRetryCause(t *testing.T) {
	const spec = `{"benchmarks":["gzip"],"instructions":20000,"warmup":5000,"widths":[2,4]}`
	var held sync.Once
	firstLease := make(chan string, 1)
	c := servertest.New(t, servertest.Config{
		Workers:    1,
		SimWorkers: 1,
		Shards:     1,
		LeaseTTL:   100 * time.Millisecond,
		OnLease: func(ctx context.Context, worker string, _ server.ShardLease) {
			// Hold the first lease's worker until it is killed.
			held.Do(func() {
				firstLease <- worker
				<-ctx.Done()
			})
		},
	})

	done := make(chan error, 1)
	go func() {
		_, err := c.RunGrid(spec, 60*time.Second)
		done <- err
	}()

	select {
	case victim := <-firstLease:
		c.KillWorker(victim)
	case <-time.After(10 * time.Second):
		t.Fatal("no lease was granted within 10s")
	}
	c.StartWorker()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("federated campaign failed: %v", err)
		}
	case <-time.After(90 * time.Second):
		t.Fatal("federated campaign did not finish after the worker kill")
	}

	report, err := c.Flight("shard.lease", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	var expired, clean int
	for _, sp := range report.Spans {
		switch {
		case sp.Attr("retry_cause") != "":
			expired++
			if sp.Err == "" {
				t.Errorf("retried lease span %s ended without an error verdict", sp.Name)
			}
		case sp.Err == "":
			clean++
		}
	}
	if expired == 0 {
		t.Errorf("no lease span records a retry_cause after a mid-shard worker kill:\n%+v", report.Spans)
	}
	if clean == 0 {
		t.Errorf("no lease span completed cleanly after the re-lease:\n%+v", report.Spans)
	}
}

package cpu

import (
	"testing"

	"paco/internal/core"
	"paco/internal/gating"
	"paco/internal/workload"
)

// laneShape builds one lane configuration (fresh estimator and gate
// state per call) for a batch-vs-singleton comparison.
type laneShape struct {
	name  string
	build func() ([]core.Estimator, func() bool)
}

// laneShapes are the configurations campaign cells actually sweep: a
// passive estimator, a PaCo probability gate, and a JRS count gate.
func laneShapes() []laneShape {
	return []laneShape{
		{name: "ungated", build: func() ([]core.Estimator, func() bool) {
			return []core.Estimator{core.NewPaCo(core.PaCoConfig{RefreshPeriod: 100_000})}, nil
		}},
		{name: "probgate", build: func() ([]core.Estimator, func() bool) {
			g := gating.NewProbGate(0.3, 200_000)
			return []core.Estimator{g.PaCo()}, g.ShouldGate
		}},
		{name: "countgate", build: func() ([]core.Estimator, func() bool) {
			g := gating.NewCountGate(12, 3)
			return []core.Estimator{g.Estimator()}, g.ShouldGate
		}},
	}
}

// buildLane attaches one lane either to a fresh singleton core (b nil)
// or to the batch.
func buildLane(t *testing.T, b *Batch, spec *workload.Spec, sh laneShape) (*Core, int) {
	t.Helper()
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ests, gate := sh.build()
	var tid int
	if b == nil {
		tid, err = c.AddThread(spec, ests)
	} else {
		tid, err = b.Attach(c, ests)
	}
	if err != nil {
		t.Fatal(err)
	}
	if gate != nil {
		c.SetGate(gate)
	}
	return c, tid
}

// TestBatchMatchesSingleton pins the batched kernel's core guarantee:
// a lane advanced by the lockstep scheduler produces exactly the cycle
// count and thread statistics of the same configuration run alone.
func TestBatchMatchesSingleton(t *testing.T) {
	const warmup, measure = 20_000, 60_000
	shapes := laneShapes()

	spec := benchmark(t, "gzip")
	b, err := NewBatch(spec)
	if err != nil {
		t.Fatal(err)
	}
	batched := make([]*Core, len(shapes))
	for i, sh := range shapes {
		batched[i], _ = buildLane(t, b, spec, sh)
	}
	b.Run(warmup)
	for _, c := range batched {
		c.ResetStats()
	}
	b.Run(measure)

	for i, sh := range shapes {
		single, tid := buildLane(t, nil, benchmark(t, "gzip"), sh)
		single.Run(warmup, 0)
		single.ResetStats()
		single.Run(measure, 0)

		if got, want := batched[i].Stats().Cycles, single.Stats().Cycles; got != want {
			t.Errorf("%s: batched cycles %d != singleton cycles %d", sh.name, got, want)
		}
		if got, want := batched[i].ThreadStats(0), single.ThreadStats(tid); got != want {
			t.Errorf("%s: batched stats diverge from singleton:\n got %+v\nwant %+v", sh.name, got, want)
		}
	}
}

// TestBatchMergedEstimators pins the estimator-lane merge: N passive
// estimator configurations attached to ONE shared core behave exactly
// as N singleton runs — same core stats, and each estimator reaches the
// same state it reaches observing its own private core. A gated lane
// rides along so the shared core reads the stream through a tape
// cursor, as it does in a campaign batch.
func TestBatchMergedEstimators(t *testing.T) {
	const warmup, measure = 20_000, 60_000
	refreshes := []uint64{50_000, 100_000, 200_000}

	spec := benchmark(t, "twolf")
	b, err := NewBatch(spec)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	merged := make([]*core.PaCo, len(refreshes))
	ests := make([]core.Estimator, len(refreshes))
	for i, r := range refreshes {
		merged[i] = core.NewPaCo(core.PaCoConfig{RefreshPeriod: r})
		ests[i] = merged[i]
	}
	if _, err := b.Attach(shared, ests); err != nil {
		t.Fatal(err)
	}
	gated, _ := buildLane(t, b, nil, laneShapes()[1])
	if got := b.Tape().Cursors(); got != 2 {
		t.Fatalf("two-lane batch has %d tape cursors, want 2", got)
	}
	b.Run(warmup)
	shared.ResetStats()
	gated.ResetStats()
	b.Run(measure)

	for i, r := range refreshes {
		single, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		paco := core.NewPaCo(core.PaCoConfig{RefreshPeriod: r})
		tid, err := single.AddThread(benchmark(t, "twolf"), []core.Estimator{paco})
		if err != nil {
			t.Fatal(err)
		}
		single.Run(warmup, 0)
		single.ResetStats()
		single.Run(measure, 0)

		if got, want := shared.Stats().Cycles, single.Stats().Cycles; got != want {
			t.Errorf("refresh=%d: shared-core cycles %d != singleton %d", r, got, want)
		}
		if got, want := shared.ThreadStats(0), single.ThreadStats(tid); got != want {
			t.Errorf("refresh=%d: shared-core stats diverge:\n got %+v\nwant %+v", r, got, want)
		}
		if got, want := merged[i].GoodpathProb(), paco.GoodpathProb(); got != want {
			t.Errorf("refresh=%d: merged estimator prob %g != singleton %g", r, got, want)
		}
	}
}

// TestBatchAttachTooManyEstimators pins that Attach fails like
// AddThread, before it creates any tape cursor. The failing Attach is
// the second one — the first that would move lane 0 onto a cursor — so
// a failure must leave the batch exactly one lane on the walker.
func TestBatchAttachTooManyEstimators(t *testing.T) {
	b, err := NewBatch(benchmark(t, "gzip"))
	if err != nil {
		t.Fatal(err)
	}
	buildLane(t, b, nil, laneShapes()[0])
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ests := make([]core.Estimator, MaxEstimators+1)
	for i := range ests {
		ests[i] = core.NewPaCo(core.PaCoConfig{})
	}
	if _, err := b.Attach(c, ests); err == nil {
		t.Fatal("Attach admitted more than MaxEstimators estimators")
	}
	if got := b.Tape().Cursors(); got != 0 {
		t.Fatalf("failed Attach left %d cursors registered, want 0", got)
	}
	if b.K() != 1 {
		t.Fatalf("failed Attach left %d lanes, want 1", b.K())
	}
	if b.threads[0].cursor != nil {
		t.Fatal("failed Attach moved lane 0 off the tape's walker")
	}
}

// TestBatchOfOneIsCore pins the one-lane rule: a batch of one lane is
// a plain Core on the tape's walker — the same statistics as AddThread
// plus Core.Run over warmup and measure, and no tape cursor.
func TestBatchOfOneIsCore(t *testing.T) {
	const warmup, measure = 20_000, 60_000
	for _, sh := range laneShapes() {
		b, err := NewBatch(benchmark(t, "gzip"))
		if err != nil {
			t.Fatal(err)
		}
		lane, ltid := buildLane(t, b, nil, sh)
		b.Run(warmup)
		lane.ResetStats()
		b.Run(measure)

		single, tid := buildLane(t, nil, benchmark(t, "gzip"), sh)
		single.Run(warmup, 0)
		single.ResetStats()
		single.Run(measure, 0)

		if got, want := lane.Stats(), single.Stats(); got != want {
			t.Errorf("%s: one-lane batch core stats %+v != Core.Run %+v", sh.name, got, want)
		}
		if got, want := lane.ThreadStats(ltid), single.ThreadStats(tid); got != want {
			t.Errorf("%s: one-lane batch thread stats diverge from Core.Run:\n got %+v\nwant %+v", sh.name, got, want)
		}
		if got := b.Tape().Cursors(); got != 0 {
			t.Errorf("%s: one-lane batch created %d tape cursors, want 0", sh.name, got)
		}
	}
}

// TestBatchAttachAfterRunPanics pins that a batch is closed to new
// lanes once it has run, at one lane as at many. A one-lane batch's
// tape never advances (its core reads the walker directly), so only the
// batch itself can tell that the stream has moved on.
func TestBatchAttachAfterRunPanics(t *testing.T) {
	shapes := laneShapes()
	for lanes := 1; lanes <= 2; lanes++ {
		b, err := NewBatch(benchmark(t, "gzip"))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < lanes; i++ {
			buildLane(t, b, nil, shapes[i])
		}
		b.Run(1000)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d lane(s): Attach after Run did not panic", lanes)
				}
			}()
			buildLane(t, b, nil, shapes[0])
		}()
	}
}

// BenchmarkBatchRun measures batched lane throughput: K=4 sweep-shaped
// lanes (two passive refresh configs merged on one core plus two gated
// cores) advanced 4000 goodpath instructions per op.
func BenchmarkBatchRun(b *testing.B) {
	spec := benchmark(b, "gzip")
	bt, err := NewBatch(spec)
	if err != nil {
		b.Fatal(err)
	}
	shared, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := bt.Attach(shared, []core.Estimator{
		core.NewPaCo(core.PaCoConfig{RefreshPeriod: 100_000}),
		core.NewPaCo(core.PaCoConfig{RefreshPeriod: 200_000}),
	}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		c, err := New(DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		g := gating.NewProbGate(0.3, 200_000)
		if _, err := bt.Attach(c, []core.Estimator{g.PaCo()}); err != nil {
			b.Fatal(err)
		}
		c.SetGate(g.ShouldGate)
	}
	bt.Run(50_000) // structure growth + cache warmup
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.Run(4000)
	}
}

// BenchmarkBatchRunOne measures a one-lane batch — the shape of every
// unbatched campaign cell: one gated core, which the batch runs as a
// plain Core on the tape's walker, advanced 4000 goodpath instructions
// per op.
func BenchmarkBatchRunOne(b *testing.B) {
	bt, err := NewBatch(benchmark(b, "gzip"))
	if err != nil {
		b.Fatal(err)
	}
	c, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	g := gating.NewProbGate(0.3, 200_000)
	if _, err := bt.Attach(c, []core.Estimator{g.PaCo()}); err != nil {
		b.Fatal(err)
	}
	c.SetGate(g.ShouldGate)
	bt.Run(50_000) // structure growth + cache warmup
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt.Run(4000)
	}
}

package cpu

import (
	"paco/internal/core"
	"paco/internal/workload"
)

// Batch advances K independent cores that replay one shared instruction
// stream (workload.Tape) in lockstep. It is the kernel of every campaign
// cell: grid cells that differ only in estimator or gating configuration
// share the expensive goodpath generation and pay only the cheap ring
// replay per lane.
//
// The lane count picks the goodpath source. A batch of one lane is a
// plain Core on the tape's walker: no cursor, no ring, and Run is
// Core.Run. From the second lane on, every lane reads the tape through
// its own cursor and Run interleaves them.
//
// The cores are plain Cores — per-core state (structure-of-arrays
// across the batch: one predictor, ROB, cache hierarchy, estimator set
// per lane) is untouched, and each core sees exactly the instruction
// sequence, quota semantics, and cycle evolution it would see running
// alone. The scheduler only chooses *when* each core steps (always the
// laggard by tape position, one instruction quantum at a time, which
// bounds ring drift while preserving per-core cache locality); since a
// core's evolution is a pure function of its own state and the shared
// immutable stream, scheduling order cannot leak between lanes — the
// determinism argument behind the byte-identical-output guarantee.
//
// A Batch is single-goroutine, like a Core.
type Batch struct {
	tape    *workload.Tape
	cores   []*Core
	threads []*thread // lane i's thread on cores[i]
	done    []bool    // scratch for Run; len == len(cores)
	ran     bool      // the stream has been consumed; Attach is closed
}

// batchQuantum is how many tape instructions a core consumes per
// scheduling turn. Larger quanta improve per-lane cache locality (a
// lane's hot state stays resident across the burst); smaller quanta
// bound how far cursors drift apart (ring memory). ~512 instructions is
// a few hundred KB of per-lane state touched per turn against a ring
// span of a few thousand entries.
const batchQuantum = 512

// NewBatch builds a batch over one workload stream. The spec is
// validated exactly as AddThread would (the error is NewWalker's).
func NewBatch(spec *workload.Spec) (*Batch, error) {
	tape, err := workload.NewTape(spec)
	if err != nil {
		return nil, err
	}
	return &Batch{tape: tape}, nil
}

// Tape returns the shared stream (diagnostics).
func (b *Batch) Tape() *workload.Tape { return b.tape }

// K returns the number of lanes (cores) attached.
func (b *Batch) K() int { return len(b.cores) }

// Core returns lane i's core.
func (b *Batch) Core(i int) *Core { return b.cores[i] }

// Attach adds a core as a batch lane: it gains one thread with the given
// estimators, and the returned thread id mirrors AddThread's. The first
// lane reads the tape's walker directly; a second Attach moves it onto a
// tape cursor and gives the new lane a cursor of its own, as does every
// later Attach. Attach panics once the batch has run (Run or StepTimed):
// a late lane would start behind the stream.
func (b *Batch) Attach(c *Core, ests []core.Estimator) (int, error) {
	if b.ran {
		panic("cpu: Batch.Attach after the batch has run")
	}
	if err := c.checkEstimators(ests); err != nil {
		return 0, err
	}
	var cur *workload.Cursor
	if len(b.threads) > 0 {
		if len(b.threads) == 1 {
			b.threads[0].cursor = b.tape.NewCursor()
		}
		cur = b.tape.NewCursor()
	}
	tid := c.attachThread(b.tape.Walker(), cur, ests)
	b.cores = append(b.cores, c)
	b.threads = append(b.threads, c.threads[tid])
	b.done = append(b.done, false)
	return tid, nil
}

// Run simulates until every lane has retired goodInstrs further
// goodpath instructions — per-core semantics identical to calling
// Core.Run(goodInstrs, 0) on each lane in isolation, which is what a
// batch of one lane does. More lanes are interleaved laggard-first in
// quanta of batchQuantum tape instructions.
func (b *Batch) Run(goodInstrs uint64) {
	b.ran = true
	if len(b.cores) == 1 {
		b.cores[0].Run(goodInstrs, 0)
		return
	}
	for i, c := range b.cores {
		c.prepareRun(goodInstrs)
		b.done[i] = c.runDone()
	}
	for {
		// Pick the unfinished lane that has consumed the least of the
		// shared stream; running it next keeps the ring span minimal.
		best := -1
		var bestPos uint64
		for i := range b.cores {
			if b.done[i] {
				continue
			}
			if p := b.threads[i].cursor.Pos(); best < 0 || p < bestPos {
				best, bestPos = i, p
			}
		}
		if best < 0 {
			return
		}
		c, cur := b.cores[best], b.threads[best].cursor
		limit := cur.Pos() + batchQuantum
		for {
			c.Step()
			if c.runDone() {
				b.done[best] = true
				break
			}
			if cur.Pos() >= limit {
				break
			}
		}
	}
}

// FreeRun lifts every lane's retirement quota so cycle-driven stepping
// (StepTimed instrumentation after a quota run) fetches freely.
func (b *Batch) FreeRun() {
	for _, c := range b.cores {
		c.unboundQuota()
	}
}

// StepTimed advances every lane one cycle with per-stage timing
// accumulated into st (st.Cycles counts core-cycles, i.e. K per call).
// Per-cycle lockstep keeps tape drift at fetch-width scale, at the cost
// of the cache locality the quantum scheduler buys — acceptable for the
// short instrumented pass that only measures relative stage cost.
func (b *Batch) StepTimed(st *StageTimes) {
	b.ran = true
	for _, c := range b.cores {
		c.StepTimed(st)
	}
}

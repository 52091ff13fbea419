package campaign

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"

	"paco/internal/core"
	"paco/internal/cpu"
	"paco/internal/workload"
)

// Batched lockstep execution. A campaign sweep re-simulates the same
// instruction stream once per grid cell; cells that differ only in
// estimator or gating configuration pay the dominant stream-generation
// cost K times. The batch planner groups cells by stream key — the
// content address of (workload spec or benchmark name, seed override,
// instruction and warmup quotas) — and each group executes as one
// cpu.Batch: one shared workload.Tape, with ungated cells merged as
// extra estimators on a shared core (estimators are passive observers
// absent a gate) and gated cells on their own cores replaying the tape.
//
// The planner is a pure function of the job slice, and the lockstep
// scheduler cannot perturb per-core evolution (see cpu.Batch), so a
// cell's result is byte-identical at any K, including K = 1 where every
// unit is a one-lane batch, i.e. a plain Core — shard content addresses
// and the federation's determinism guarantees are untouched.

// batchDomain versions the stream-key computation, domain-separated
// from shard IDs.
const batchDomain = "paco-batch/v1"

// DefaultBatchK is the batch width the CLIs and server default to: wide
// enough to amortize stream generation across a typical refresh-axis
// sweep, narrow enough that a batch's working set (K cores' predictor
// and cache state) stays cache-resident.
const DefaultBatchK = 8

// BatchUnit is one planned execution unit: the cells (indices into the
// planned job slice) that run together on one shared instruction
// stream. A unit of one cell runs as a one-lane cpu.Batch, i.e. on a
// plain Core (see executeUnit).
type BatchUnit struct {
	// Key is the unit's stream key — the content address of the shared
	// workload stream and run shape. Empty for singleton units of jobs
	// that cannot be batched (custom Exec jobs).
	Key string `json:"key,omitempty"`

	// Cells are indices into the planned job slice, ascending.
	Cells []int `json:"cells"`
}

// StreamKey returns the job's batch stream key: the SHA-256 content
// address of the workload it fetches (explicit spec or benchmark name),
// its seed override, and its instruction/warmup quotas. Jobs with equal
// stream keys consume identical goodpath instruction streams over
// identical quota windows, so they may share one tape. The second
// result is false for jobs that cannot be batched (custom Exec jobs).
func StreamKey(job *Job) (string, bool) {
	if job.Exec != nil {
		return "", false
	}
	var stream []byte
	if job.Spec != nil {
		raw, err := json.Marshal(job.Spec)
		if err != nil {
			return "", false
		}
		stream = raw
	} else {
		stream = []byte("bench:" + job.Benchmark)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%d\x00%d\x00%d", batchDomain, stream, job.Seed, job.Instructions, job.Warmup)
	return hex.EncodeToString(h.Sum(nil)), true
}

// PlanBatches partitions the jobs into execution units of at most
// batchK cells each, grouping jobs by stream key. Every job lands in
// exactly one unit; groups split into balanced chunks (Ranges); units
// are ordered by first cell, so a plan over a grid's workload-major job
// order stays contiguous. batchK <= 1 plans every job as a unit of
// one, in job order.
func PlanBatches(jobs []Job, batchK int) []BatchUnit {
	batchK = max(batchK, 1)
	type group struct {
		key   string
		cells []int
	}
	byKey := map[string]int{}
	var groups []*group
	for i := range jobs {
		key, ok := StreamKey(&jobs[i])
		if !ok {
			groups = append(groups, &group{cells: []int{i}})
			continue
		}
		gi, seen := byKey[key]
		if !seen {
			gi = len(groups)
			byKey[key] = gi
			groups = append(groups, &group{key: key})
		}
		groups[gi].cells = append(groups[gi].cells, i)
	}
	units := make([]BatchUnit, 0, len(jobs))
	for _, g := range groups {
		n := (len(g.cells) + batchK - 1) / batchK
		for _, r := range Ranges(len(g.cells), n) {
			units = append(units, BatchUnit{Key: g.key, Cells: g.cells[r[0]:r[1]]})
		}
	}
	// Order units by first cell so execution and progress reporting
	// follow job order as closely as the grouping allows.
	slices.SortFunc(units, func(a, b BatchUnit) int { return a.Cells[0] - b.Cells[0] })
	return units
}

// batchLane is one cell's state during executeUnit.
type batchLane struct {
	job     *Job
	index   int // the cell's index in the planned job slice
	spec    *workload.Spec
	machine cpu.Config
	hooks   Hooks
	c       *cpu.Core
	tid     int
	out     Result
	settled bool
}

// settle records the lane's final outcome: res on success, or a Result
// carrying only its identity and err.
func (ln *batchLane) settle(res *Result, err error) {
	job := ln.job
	if err != nil {
		ln.out = Result{JobID: job.ID, Index: ln.index, Benchmark: job.Benchmark, Err: err.Error()}
	} else {
		if res == nil {
			res = &Result{}
		}
		res.JobID = job.ID
		res.Index = ln.index
		if res.Benchmark == "" {
			res.Benchmark = job.Benchmark
		}
		ln.out = *res
	}
	ln.settled = true
}

// prologue prepares one lane: an Exec job runs its hook, and done
// reports that res/err are the cell's final outcome; any other job
// resolves its workload, builds its core and runs Setup. A panic fails
// only this lane.
func (ln *batchLane) prologue(ctx context.Context) (res *Result, done bool, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, done, err = nil, true, fmt.Errorf("panic: %v", p)
		}
	}()
	job := ln.job
	if job.Exec != nil {
		res, err = job.Exec(ctx)
		return res, true, err
	}
	if ln.spec, err = resolveSpec(job); err != nil {
		return nil, true, err
	}
	ln.machine = cpu.DefaultConfig()
	if job.Machine != nil {
		ln.machine = *job.Machine
	}
	if ln.c, err = cpu.New(ln.machine); err != nil {
		return nil, true, err
	}
	if job.Setup != nil {
		ln.hooks = job.Setup()
	}
	return nil, false, nil
}

// executeUnit runs one planned unit and returns one Result per cell. It
// is the only way a Runner executes cells. Each lane first runs its
// prologue, in cell order. The lanes that survive it run through
// runLanes: a lane whose hooks read its core's walker (Hooks.Attached)
// on a batch of its own, the rest together on one batch. A unit of one
// cell is a one-lane batch, which cpu.Batch runs as a plain Core, so
// every cell's Result is byte-identical at any batch width.
func executeUnit(ctx context.Context, jobs []Job, cells []int) []Result {
	lanes := make([]*batchLane, len(cells))
	var shared []*batchLane
	for j, ci := range cells {
		ln := &batchLane{job: &jobs[ci], index: ci}
		lanes[j] = ln
		switch res, done, err := ln.prologue(ctx); {
		case done:
			ln.settle(res, err)
		case ln.hooks.Attached != nil:
			runLanes([]*batchLane{ln})
		default:
			shared = append(shared, ln)
		}
	}
	if len(shared) > 0 {
		runLanes(shared)
	}
	out := make([]Result, len(cells))
	for j, ln := range lanes {
		out[j] = ln.out
	}
	return out
}

// runLanes runs prepared lanes of one unit to completion on one
// cpu.Batch. It is the only cell schedule: place the lanes, call
// Attached, warm up, refresh PaCo, reset statistics and install probes,
// measure, collect. A panic (estimator, gate or hook code) fails every
// lane of this call that has not settled; per-lane isolation is not
// possible once lanes share a core.
func runLanes(lanes []*batchLane) {
	defer func() {
		if p := recover(); p != nil {
			for _, ln := range lanes {
				if !ln.settled {
					ln.settle(nil, fmt.Errorf("panic: %v", p))
				}
			}
		}
	}()

	// All lanes of a unit resolve content-equal specs, so the first one
	// builds the shared tape. A walker build error fails each lane
	// exactly where AddThread would have.
	batch, err := cpu.NewBatch(lanes[0].spec)
	if err != nil {
		for _, ln := range lanes {
			ln.settle(nil, err)
		}
		return
	}

	// Lane placement: gated cells keep their own core on the tape;
	// ungated cells are passive observers (estimators feed back into the
	// core only through a gate), so they merge onto shared cores — first
	// fit in cell order, same machine configuration, at most
	// cpu.MaxEstimators estimators per core.
	type sharedCore struct {
		machine cpu.Config
		c       *cpu.Core
		ests    []core.Estimator
		lanes   []*batchLane
	}
	var shares []*sharedCore
	for _, ln := range lanes {
		if ln.hooks.Gate != nil {
			tid, err := batch.Attach(ln.c, ln.hooks.Estimators)
			if err != nil {
				ln.settle(nil, err)
				continue
			}
			ln.tid = tid
			ln.c.SetGate(ln.hooks.Gate)
			continue
		}
		var sc *sharedCore
		for _, s := range shares {
			if s.machine == ln.machine && len(s.ests)+len(ln.hooks.Estimators) <= cpu.MaxEstimators {
				sc = s
				break
			}
		}
		if sc == nil {
			sc = &sharedCore{machine: ln.machine, c: ln.c}
			shares = append(shares, sc)
		}
		sc.lanes = append(sc.lanes, ln)
		sc.ests = append(sc.ests, ln.hooks.Estimators...)
		ln.c = sc.c
	}
	for _, sc := range shares {
		tid, err := batch.Attach(sc.c, sc.ests)
		for _, ln := range sc.lanes {
			if err != nil {
				ln.settle(nil, err)
			} else {
				ln.tid = tid
			}
		}
	}

	var active []*batchLane
	for _, ln := range lanes {
		if !ln.settled {
			active = append(active, ln)
		}
	}
	if len(active) == 0 {
		return
	}
	for _, ln := range active {
		if ln.hooks.Attached != nil {
			ln.hooks.Attached(ln.c, ln.tid)
		}
	}

	// Quotas are per-unit constants (the stream key pins them).
	job := active[0].job
	batch.Run(job.Warmup)
	// The warmup stands in for the paper's fast-forward, during which
	// PaCo's log circuit would have run thousands of times; force one
	// logarithmization at the boundary so measurement never starts from
	// the cold-start profile.
	for _, ln := range active {
		refreshPaCos(ln.hooks.Estimators)
	}
	seen := map[*cpu.Core]bool{}
	for _, ln := range active {
		c := ln.c
		if seen[c] {
			continue
		}
		seen[c] = true
		c.ResetStats()
		var probes []func(int, bool)
		for _, other := range active {
			if other.c == c && other.hooks.Probe != nil {
				probes = append(probes, other.hooks.Probe)
			}
		}
		switch len(probes) {
		case 0:
		case 1:
			c.SetProbe(probes[0])
		default:
			c.SetProbe(func(tid int, goodpath bool) {
				for _, p := range probes {
					p(tid, goodpath)
				}
			})
		}
	}
	batch.Run(job.Instructions)

	for _, ln := range active {
		ln.settle(collectResult(ln.c, ln.spec, ln.tid, ln.hooks), nil)
	}
}

package cpu

import (
	"fmt"

	"paco/internal/branch"
	"paco/internal/cache"
	"paco/internal/confidence"
	"paco/internal/core"
	"paco/internal/workload"
)

// MaxEstimators is the maximum number of path confidence estimators that
// can observe one thread simultaneously (experiments attach several passive
// estimators to a single run).
const MaxEstimators = 6

const wheelSize = 256 // > max execute latency (3 + 10 + 100)

// ref names one in-flight instruction.
type ref struct {
	tid int
	seq uint64
}

// robEntry is the hot part of one in-flight instruction: the 32 bytes the
// arrive, issue, wakeup, squash and retire loops test on every visit, so
// they walk 8 KB per 256-entry thread, not a combined record's 47 KB.
// dispatch resets it whole; the robPayload at the same index holds the
// rest.
type robEntry struct {
	seq         uint64
	issuedAt    uint64 // cycle of (first) issue; see the re-issue note in issue()
	pendingDeps int32
	waiterHead  int32 // head of the intrusive waiter list (0 = empty)
	valid       bool
	badpath     bool
	isControl   bool
	inSched     bool
	eligible    bool
	issued      bool
	done        bool
}

// robPayload is the cold part of one in-flight instruction. Fetch writes
// ins straight into the slot at the ROB tail; predictControl sets the
// rest for control instructions, the only ones that read it.
type robPayload struct {
	ins           workload.Instruction
	conditional   bool
	predTaken     bool
	mispredicted  bool // fetch-time knowledge: prediction differs from actual
	histAtPred    uint32
	ghrCheckpoint uint32
	mdc           uint32

	contribs [MaxEstimators]core.Contribution
}

// thread is one hardware context.
type thread struct {
	id     int
	walker *workload.Walker
	cursor *workload.Cursor // non-nil: goodpath comes from a shared tape
	wrong  *workload.WrongPath
	ghr    *branch.History
	ras    *branch.RAS
	ests   []core.Estimator

	rob     []robEntry   // power-of-two length; see entry()
	payload []robPayload // parallel to rob; see slot()
	head    uint64       // oldest in-flight seq
	tail    uint64       // next seq to allocate

	waiterNodes []waiterNode // dependency-list arena; index 0 is a sentinel
	waiterFree  int32        // free-list head (0 = empty)

	onGoodpath     bool
	fetchResume    uint64
	hasPending     bool // the ROB tail's payload holds an I-cache-stalled instruction
	lastFetchBlock uint64

	stats ThreadStats
	quota uint64 // goodpath instruction budget for Run
}

// entry maps a seq to its ROB slot. len(rob) is a power of two, so the
// mask form both avoids a division and lets the compiler elide the bounds
// check.
func (t *thread) entry(seq uint64) *robEntry { return &t.rob[seq&uint64(len(t.rob)-1)] }

// slot maps a seq to its payload, as entry does.
func (t *thread) slot(seq uint64) *robPayload {
	return &t.payload[seq&uint64(len(t.payload)-1)]
}

func (t *thread) inFlight() int { return int(t.tail - t.head) }

// Core is the simulated processor.
type Core struct {
	cfg        Config
	pred       *branch.Tournament
	jrs        *confidence.JRS
	perceptron *confidence.Perceptron // non-nil when configured as stratifier
	btb        *branch.BTB
	mem        *cache.Hierarchy

	threads []*thread
	cycle   uint64

	robCount   int
	schedCount int

	wheel   [wheelSize][]ref
	arrival [wheelSize][]ref
	ready   readyQueue

	fetchScratch []int // reused by fetch; never retained by choosers

	gate   func() bool
	choose func(cycle uint64, fetchable []int) int
	probe  func(tid int, goodpath bool)

	// probeRetire, when set, observes every retired conditional branch:
	// (workload StaticID, prediction correct). Diagnostic hook.
	probeRetire func(staticID int, correct bool)

	stats Stats
}

// New builds a core from cfg with no threads; add workloads with AddThread.
func New(cfg Config) (*Core, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Core{
		cfg:  cfg,
		pred: branch.NewTournament(cfg.Predictor),
		jrs:  confidence.New(cfg.JRS),
		btb:  branch.NewBTB(cfg.BTBEntries, cfg.BTBWays),
		mem:  cache.NewHierarchy(cfg.Memory),
	}
	if cfg.PerceptronStratifier {
		c.perceptron = confidence.NewPerceptron(confidence.DefaultPerceptronConfig())
	}
	return c, nil
}

// AddThread attaches a workload and its path confidence estimators
// (estimators observe only this thread). It returns the thread id.
func (c *Core) AddThread(spec *workload.Spec, ests []core.Estimator) (int, error) {
	if err := c.checkEstimators(ests); err != nil {
		return 0, err
	}
	w, err := workload.NewWalker(spec)
	if err != nil {
		return 0, err
	}
	return c.attachThread(w, nil, ests), nil
}

// checkEstimators rejects a thread with more than MaxEstimators
// estimators: each robPayload holds a fixed [MaxEstimators]Contribution
// array, so admitting more would silently mis-index it.
func (c *Core) checkEstimators(ests []core.Estimator) error {
	if len(ests) > MaxEstimators {
		return fmt.Errorf("cpu: %d estimators attached to thread %d, at most %d supported (robPayload.contribs is fixed-size)",
			len(ests), len(c.threads), MaxEstimators)
	}
	return nil
}

// attachThread builds the hardware context shared by AddThread and
// Batch.Attach. A non-nil cursor feeds the goodpath from a shared tape
// (w is then the tape's walker, kept for diagnostics and the wrong-path
// generator); only nextInstruction consults it. The thread's wrong-path
// generator is private (badpath content is its own seeded stream and
// reads only the walker's immutable spec), so a cursor-fed core evolves
// exactly as a walker-fed one would.
func (c *Core) attachThread(w *workload.Walker, cur *workload.Cursor, ests []core.Estimator) int {
	// The ROB backing array is rounded up to a power of two so entry()
	// maps seq to slot with a mask instead of a division (a measured
	// kernel hotspot). Capacity is still bounded by cfg.ROBSize via
	// robCount; the extra slots are never simultaneously live.
	robLen := uint64(1)
	for robLen < uint64(c.cfg.ROBSize) {
		robLen <<= 1
	}
	t := &thread{
		id:             len(c.threads),
		walker:         w,
		cursor:         cur,
		ghr:            branch.NewHistory(8),
		ras:            branch.NewRAS(c.cfg.RASDepth),
		ests:           ests,
		rob:            make([]robEntry, robLen),
		payload:        make([]robPayload, robLen),
		waiterNodes:    make([]waiterNode, 1, 2*c.cfg.ROBSize+1),
		onGoodpath:     true,
		lastFetchBlock: ^uint64(0),
	}
	t.wrong = workload.NewWrongPath(w)
	c.threads = append(c.threads, t)
	return t.id
}

// SetGate installs a fetch gating predicate, consulted each cycle before
// fetching (pipeline gating applications; single-thread runs).
func (c *Core) SetGate(gate func() bool) { c.gate = gate }

// SetChooser installs the SMT fetch policy: given the cycle and the ids of
// threads able to fetch, return the thread that gets the fetch bandwidth.
// Nil means round-robin. The fetchable slice is a scratch buffer reused
// across cycles; choosers must not retain it past the call.
func (c *Core) SetChooser(choose func(cycle uint64, fetchable []int) int) { c.choose = choose }

// SetProbe installs the instance probe: called after every fetch and
// execute event with the thread id and the goodpath oracle, exactly the
// paper's "instances" (footnotes 6-7).
func (c *Core) SetProbe(probe func(tid int, goodpath bool)) { c.probe = probe }

// InFlight returns the number of in-flight instructions of a thread
// (the ICOUNT policy input).
func (c *Core) InFlight(tid int) int { return c.threads[tid].inFlight() }

// Threads returns the number of attached threads.
func (c *Core) Threads() int { return len(c.threads) }

// Walker exposes a thread's workload walker (diagnostics).
func (c *Core) Walker(tid int) *workload.Walker { return c.threads[tid].walker }

// Run simulates until every thread has retired at least goodInstrs
// goodpath instructions (or maxCycles elapses, if non-zero). It returns the
// number of cycles simulated during this call.
func (c *Core) Run(goodInstrs uint64, maxCycles uint64) uint64 {
	if len(c.threads) == 0 {
		panic("cpu: Run with no threads")
	}
	c.prepareRun(goodInstrs)
	start := c.cycle
	for !c.runDone() {
		if maxCycles != 0 && c.cycle-start >= maxCycles {
			break
		}
		c.Step()
	}
	return c.cycle - start
}

// prepareRun arms every thread's goodpath retirement quota exactly as
// Run does; Batch uses it to advance several cores under one scheduler
// with per-core Run semantics.
func (c *Core) prepareRun(goodInstrs uint64) {
	for _, t := range c.threads {
		t.quota = t.stats.RetiredGood + goodInstrs
	}
}

// unboundQuota lifts all retirement quotas so cycle-driven stepping
// (RunCycles, instrumented passes) fetches freely.
func (c *Core) unboundQuota() {
	for _, t := range c.threads {
		t.quota = ^uint64(0)
	}
}

// runDone reports whether every thread has met its retirement quota —
// Run's termination condition.
func (c *Core) runDone() bool {
	for _, t := range c.threads {
		if t.stats.RetiredGood < t.quota {
			return false
		}
	}
	return true
}

// RunCycles simulates exactly n cycles (SMT throughput experiments measure
// fixed time slices rather than fixed instruction counts). Threads fetch
// freely — quotas are ignored.
func (c *Core) RunCycles(n uint64) {
	c.unboundQuota()
	for i := uint64(0); i < n; i++ {
		c.Step()
	}
}

// Step simulates one cycle.
func (c *Core) Step() { c.tick() }

// tick is the steady-state cycle loop: each stage fast-paths out when it
// has no work this cycle, and none of them allocates once the wheel
// buckets, ready queue, and waiter arenas have grown to their steady-state
// sizes.
func (c *Core) tick() {
	for _, t := range c.threads {
		for _, e := range t.ests {
			e.Tick(c.cycle)
		}
	}
	c.complete()
	c.arrive()
	c.issue()
	c.retire()
	c.fetch()
	c.cycle++
	c.stats.Cycles++
}

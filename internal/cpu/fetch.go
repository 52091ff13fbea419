package cpu

import "paco/internal/workload"

// fetch runs the front end for one cycle: pick a thread (SMT policy),
// apply gating, and fetch up to FetchWidth instructions, ending the group
// at taken control flow, I-cache misses, or back-pressure from the ROB or
// scheduler.
func (c *Core) fetch() {
	fetchable := c.fetchScratch[:0]
	for _, t := range c.threads {
		if c.cycle >= t.fetchResume && t.stats.RetiredGood < t.quota {
			fetchable = append(fetchable, t.id)
		}
	}
	c.fetchScratch = fetchable[:0]
	if len(fetchable) == 0 {
		return
	}
	var tid int
	if c.choose != nil {
		tid = c.choose(c.cycle, fetchable)
	} else {
		tid = fetchable[int(c.cycle)%len(fetchable)]
	}
	t := c.threads[tid]
	if c.cycle < t.fetchResume {
		return // policy picked a stalled thread; bandwidth is wasted
	}
	if c.gate != nil && c.gate() {
		t.stats.GatedCycles++
		return
	}
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.robCount >= c.cfg.ROBSize || c.schedCount >= c.cfg.SchedSize {
			break
		}
		if !c.nextInstruction(t) {
			break // I-cache miss: group ends, resume later
		}
		if c.dispatch(t) {
			break // taken control flow ends the fetch group
		}
	}
}

// nextInstruction writes the next instruction of the thread's current path
// into the payload slot at the ROB tail (free: its last occupant retired
// or was squashed), where dispatch claims it, and models the I-cache:
// crossing into a new block pays the fetch latency, and the instruction
// waits in its slot (hasPending) until fetch resumes.
func (c *Core) nextInstruction(t *thread) bool {
	if t.hasPending {
		t.hasPending = false
		return true
	}
	ins := &t.slot(t.tail).ins
	badpath := !t.onGoodpath
	switch {
	case badpath:
		t.wrong.NextInto(ins)
	case t.cursor != nil:
		t.cursor.NextInto(ins) // batched: replay the shared tape
	default:
		t.walker.NextInto(ins)
	}
	const blockShift = 7 // 128-byte I-cache lines (Table 6)
	blk := ins.PC >> blockShift
	if blk != t.lastFetchBlock {
		t.lastFetchBlock = blk
		if lat := c.mem.FetchLatency(ins.PC, badpath); lat > 0 {
			t.hasPending = true
			t.fetchResume = c.cycle + lat
			return false
		}
	}
	return true
}

// dispatch renames the instruction in the ROB tail's slot into the ROB and
// scheduler, performs branch prediction and confidence lookups, and
// switches the thread onto the wrong path when a goodpath branch
// mispredicts. It reports whether fetch was redirected (ending the group).
func (c *Core) dispatch(t *thread) bool {
	seq := t.tail
	t.tail++
	c.robCount++
	e := t.entry(seq)
	p := t.slot(seq)
	// A squashed producer's waiter list survives until its slot is reused
	// here; recycle the nodes before the entry is overwritten.
	t.freeWaiters(e.waiterHead)
	*e = robEntry{seq: seq, valid: true, badpath: !t.onGoodpath}
	if e.badpath {
		t.stats.FetchedBad++
	} else {
		t.stats.FetchedGood++
	}

	redirected := false
	if p.ins.Kind.IsControl() {
		redirected = c.predictControl(t, e, p)
	}

	// Rename: resolve dependence distances to producer seqs. The
	// instruction traverses the front end for FrontEndDepth cycles before
	// it becomes eligible to issue.
	c.trackDep(t, e, p.ins.Dep1)
	c.trackDep(t, e, p.ins.Dep2)
	e.inSched = true
	c.schedCount++
	slot := (c.cycle + c.cfg.FrontEndDepth) % wheelSize
	c.arrival[slot] = append(c.arrival[slot], ref{t.id, seq})

	if c.probe != nil {
		c.probe(t.id, t.onGoodpath)
	}
	return redirected
}

func (c *Core) trackDep(t *thread, e *robEntry, dist int32) {
	if dist <= 0 {
		return
	}
	if uint64(dist) > e.seq {
		return // reaches before the start of the program
	}
	depSeq := e.seq - uint64(dist)
	if depSeq < t.head {
		return // producer already retired (or squashed)
	}
	p := t.entry(depSeq)
	if !p.valid || p.seq != depSeq || p.done {
		return
	}
	p.waiterHead = t.allocWaiter(e.seq, p.waiterHead)
	e.pendingDeps++
}

// predictControl performs direction/target prediction for a control
// instruction, reads the JRS confidence table, notifies the estimators, and
// handles fetch redirection including the goodpath->badpath transition.
// It reports whether fetch was redirected this cycle.
func (c *Core) predictControl(t *thread, e *robEntry, p *robPayload) bool {
	ins := &p.ins
	e.isControl = true
	p.conditional, p.predTaken, p.mispredicted, p.mdc = false, false, false, 0
	p.histAtPred = t.ghr.Value()
	p.ghrCheckpoint = t.ghr.Checkpoint()

	var predTarget uint64
	var predTaken bool
	switch ins.Kind {
	case workload.KindBranch:
		// Direct conditional branch: the decoder computes the taken
		// target within the fetch group, so only the *direction* can
		// mispredict.
		p.conditional = true
		predTaken = c.pred.Predict(ins.PC, p.histAtPred)
		p.predTaken = predTaken
		if c.perceptron != nil {
			p.mdc = c.perceptron.Confidence(ins.PC, p.histAtPred)
		} else {
			p.mdc = c.jrs.MDC(ins.PC, p.histAtPred, predTaken)
		}
		t.ghr.Push(predTaken)
		if e.badpath {
			// Badpath branch outcomes are decided against the live
			// prediction so wrong-path code behaves like code.
			t.wrong.ResolveBranch(ins, predTaken)
		}
		p.mispredicted = predTaken != ins.Taken
	case workload.KindJump, workload.KindCall:
		// Direct targets are computed at decode: never mispredicted.
		predTaken = true
		predTarget = ins.NextPC
		if ins.Kind == workload.KindCall {
			t.ras.Push(ins.PC + 4)
		}
	case workload.KindReturn:
		predTaken = true
		predTarget = t.ras.Pop()
		p.mispredicted = predTarget != ins.NextPC
	case workload.KindIndirect:
		predTaken = true
		if tgt, ok := c.btb.Lookup(ins.PC); ok {
			predTarget = tgt
		} else {
			predTarget = ins.PC + 4 // no prediction: certainly wrong
		}
		p.mispredicted = predTarget != ins.NextPC
	}

	// Path confidence estimators see every control instruction; only
	// conditional branches carry an MDC (JRS covers only those).
	ev := p.event()
	for i, est := range t.ests {
		p.contribs[i] = est.BranchFetched(ev)
	}

	// Fetch redirection. On a misprediction the front end follows the
	// (wrong) predicted path: if this was a goodpath branch, the machine
	// diverges here and discovers it at execute; on the badpath, fetch
	// simply continues down another wrong path.
	if p.mispredicted {
		t.onGoodpath = false
		wrongPC := predTarget
		if ins.Kind == workload.KindBranch {
			wrongPC = ins.AltPC
		}
		t.wrong.Redirect(wrongPC)
		t.lastFetchBlock = ^uint64(0)
		return true
	}
	// Correctly predicted: fetch follows the actual path (the walker or
	// wrong-path generator already advanced there). Taken control flow
	// ends the fetch group.
	taken := true
	if ins.Kind == workload.KindBranch {
		taken = ins.Taken
	}
	if taken {
		t.lastFetchBlock = ^uint64(0)
		return true
	}
	return false
}

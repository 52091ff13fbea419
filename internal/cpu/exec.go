package cpu

import (
	"paco/internal/core"
	"paco/internal/workload"
)

// event builds the estimator-facing view of a control instruction.
func (p *robPayload) event() core.BranchEvent {
	return core.BranchEvent{
		PC:          p.ins.PC,
		History:     p.histAtPred,
		MDC:         p.mdc,
		Conditional: p.conditional,
	}
}

// arrive processes this cycle's front-end arrivals: instructions fetched
// FrontEndDepth cycles ago become eligible to issue.
func (c *Core) arrive() {
	bucket := c.arrival[c.cycle%wheelSize]
	if len(bucket) == 0 {
		return
	}
	c.arrival[c.cycle%wheelSize] = bucket[:0]
	for _, r := range bucket {
		e := c.threads[r.tid].entry(r.seq)
		if !e.valid || e.seq != r.seq || e.issued {
			continue // squashed in flight
		}
		e.eligible = true
		if e.pendingDeps == 0 {
			c.ready.push(r)
		}
	}
}

// issue moves up to FUCount ready instructions from the scheduler to the
// function units, oldest first. Memory latency is resolved here, including
// badpath cache pollution. The ready queue is age-sorted (see sched.go);
// refs invalidated by squashes are discarded as they surface.
func (c *Core) issue() {
	for fu := 0; fu < c.cfg.FUCount && c.ready.len() > 0; fu++ {
		var r ref
		var t *thread
		var e *robEntry
		for {
			r = c.ready.pop()
			t = c.threads[r.tid]
			e = t.entry(r.seq)
			if e.valid && e.seq == r.seq && e.inSched && e.eligible && !e.issued && e.pendingDeps == 0 {
				break
			}
			// Seed-kernel compatibility: the ready list can briefly hold
			// two refs for one entry — after a squash rolls the tail back,
			// a stale arrival-wheel ref for the same seq marks the
			// re-dispatched instruction eligible early, and its real
			// arrival then pushes a second ref. The seed's flat ready list
			// validated refs only at the top of the cycle, so when both
			// copies were among the oldest it issued the entry twice in
			// one cycle (double-counting ExecutedGood/Bad, re-touching
			// the cache, and decrementing schedCount twice). Reports are
			// pinned byte-identical to the seed, so the duplicate is
			// re-issued here exactly the same way instead of discarded.
			if e.valid && e.seq == r.seq && e.issued && e.issuedAt == c.cycle {
				break
			}
			if c.ready.len() == 0 {
				return
			}
		}
		e.issued = true
		e.issuedAt = c.cycle
		e.inSched = false
		c.schedCount--

		ins := &t.slot(r.seq).ins
		lat := uint64(max(ins.Lat, 1))
		switch ins.Kind {
		case workload.KindLoad:
			lat += c.mem.DataLatency(ins.Addr, e.badpath)
		case workload.KindStore:
			// Stores write at retire; the issue-time access models the
			// line fill (write-allocate), including badpath pollution.
			c.mem.DataLatency(ins.Addr, e.badpath)
		}
		if e.badpath {
			t.stats.ExecutedBad++
		} else {
			t.stats.ExecutedGood++
		}
		c.wheel[(c.cycle+lat)%wheelSize] = append(c.wheel[(c.cycle+lat)%wheelSize], r)
	}
}

func older(a, b ref) bool {
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.tid < b.tid
}

// complete drains this cycle's completion wheel bucket: instructions finish
// execution, wake their dependents, and branches resolve — possibly
// squashing younger instructions and redirecting fetch.
func (c *Core) complete() {
	bucket := c.wheel[c.cycle%wheelSize]
	if len(bucket) == 0 {
		return
	}
	c.wheel[c.cycle%wheelSize] = bucket[:0]
	for _, r := range bucket {
		t := c.threads[r.tid]
		e := t.entry(r.seq)
		if !e.valid || e.seq != r.seq || !e.issued || e.done {
			continue // squashed while executing
		}
		e.done = true

		// Wake dependents, returning the list's nodes to the pool.
		for n := e.waiterHead; n != 0; {
			node := &t.waiterNodes[n]
			ws := node.seq
			next := node.next
			node.next = t.waiterFree
			t.waiterFree = n
			n = next
			w := t.entry(ws)
			if !w.valid || w.seq != ws || w.pendingDeps == 0 {
				continue
			}
			w.pendingDeps--
			if w.pendingDeps == 0 && w.inSched && w.eligible && !w.issued {
				c.ready.push(ref{t.id, ws})
			}
		}
		e.waiterHead = 0

		if e.isControl {
			c.resolveControl(t, e)
		}
		if c.probe != nil {
			c.probe(t.id, t.onGoodpath)
		}
	}
}

// resolveControl handles a control instruction finishing execution: the
// estimators see the resolve, and a mispredicted branch squashes younger
// instructions and redirects fetch (back to the goodpath if this was the
// divergence point).
func (c *Core) resolveControl(t *thread, e *robEntry) {
	p := t.slot(e.seq)
	for i := range t.ests {
		t.ests[i].BranchResolved(p.contribs[i])
	}
	// Badpath taken control flow trains the BTB at resolve: wrong-path
	// pollution (the perlbmk effect the paper's conservative gating
	// removes).
	if e.badpath && (p.ins.Kind != workload.KindBranch || p.ins.Taken) {
		c.btb.Insert(p.ins.PC, p.ins.NextPC)
	}
	if !p.mispredicted {
		return
	}
	t.stats.Recoveries++
	c.squashYounger(t, e.seq)

	// Repair the speculative history: everything after this branch was
	// fetched down the wrong path.
	t.ghr.Restore(p.ghrCheckpoint)
	if p.conditional {
		t.ghr.Push(p.ins.Taken)
	}

	// Redirect fetch after the misprediction penalty.
	resume := c.cycle + c.cfg.MispredictPenalty
	if resume > t.fetchResume {
		t.fetchResume = resume
	}
	t.hasPending = false
	t.lastFetchBlock = ^uint64(0)

	if !e.badpath {
		// Divergence point: recovery returns fetch to the goodpath, which
		// resumes exactly where the walker stopped.
		t.onGoodpath = true
	} else {
		// A badpath branch "resolved": fetch continues down the badpath
		// at that branch's actual target.
		t.wrong.Redirect(p.ins.NextPC)
	}
}

// squashYounger removes every instruction younger than seq from the
// machine, notifying estimators of squashed control instructions.
func (c *Core) squashYounger(t *thread, seq uint64) {
	for s := t.tail; s > seq+1; s-- {
		e := t.entry(s - 1)
		if !e.valid || e.seq != s-1 {
			continue
		}
		// Entries that already resolved (done) have had their
		// contribution removed at resolve; squashing them again would
		// double-subtract from the path confidence sums.
		if e.isControl && !e.done {
			p := t.slot(s - 1)
			for i := range t.ests {
				t.ests[i].BranchSquashed(p.contribs[i])
			}
		}
		if e.inSched && !e.issued {
			c.schedCount--
		}
		e.valid = false
		e.inSched = false
		c.robCount--
		t.stats.Squashed++
	}
	t.tail = seq + 1
}

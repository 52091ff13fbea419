package cpu

import (
	"paco/internal/confidence"
	"paco/internal/workload"
)

// retire commits up to RetireWidth finished instructions in program order,
// rotating fairly among threads. Only goodpath instructions ever retire
// (badpath instructions are squashed before reaching the ROB head); retire
// is where predictor training happens.
func (c *Core) retire() {
	budget := c.cfg.RetireWidth
	n := len(c.threads)
	idx := int(c.cycle) % n
	for i := 0; i < n && budget > 0; i++ {
		t := c.threads[idx]
		idx++
		if idx == n {
			idx = 0
		}
		for budget > 0 && t.head < t.tail {
			e := t.entry(t.head)
			if !e.valid || e.seq != t.head || !e.done {
				break
			}
			c.commit(t, e)
			e.valid = false
			t.head++
			c.robCount--
			budget--
		}
	}
}

// commit applies one retiring instruction's training and statistics.
func (c *Core) commit(t *thread, e *robEntry) {
	if e.badpath {
		panic("cpu: badpath instruction reached retirement")
	}
	st := &t.stats
	st.RetiredGood++
	if e.isControl {
		p := t.slot(e.seq)
		st.CtrlRetired++
		correct := !p.mispredicted
		if !correct {
			st.CtrlMispredicts++
		}
		if p.conditional {
			if c.probeRetire != nil {
				c.probeRetire(int(p.ins.StaticID), correct)
			}
			st.CondRetired++
			if !correct {
				st.CondMispredicts++
			}
			if p.mdc < confidence.NumBuckets {
				if correct {
					st.BucketCorrect[p.mdc]++
				} else {
					st.BucketMispred[p.mdc]++
				}
			}
			// Train the direction predictor, the JRS confidence table and
			// the path confidence estimators on goodpath outcomes.
			c.pred.Update(p.ins.PC, p.histAtPred, p.ins.Taken)
			c.jrs.Update(p.ins.PC, p.histAtPred, p.predTaken, correct)
			if c.perceptron != nil {
				c.perceptron.Update(p.ins.PC, p.histAtPred, correct)
			}
		}
		ev := p.event()
		for i := range t.ests {
			t.ests[i].BranchRetired(ev, correct)
		}
		// Train the BTB with goodpath targets (indirect control flow and
		// taken branches).
		switch p.ins.Kind {
		case workload.KindIndirect:
			c.btb.Insert(p.ins.PC, p.ins.NextPC)
		case workload.KindBranch:
			if p.ins.Taken {
				c.btb.Insert(p.ins.PC, p.ins.NextPC)
			}
		}
	}
}

package core

import (
	"math"
	"testing"
	"testing/quick"

	"paco/internal/bitutil"
	"paco/internal/confidence"
	"paco/internal/rng"
)

func condEvent(mdc uint32) BranchEvent {
	return BranchEvent{PC: 0x1000, MDC: mdc, Conditional: true}
}

func TestPaCoSumAccounting(t *testing.T) {
	p := NewPaCo(PaCoConfig{})
	if p.EncodedSum() != 0 || p.GoodpathProb() != 1 {
		t.Fatal("fresh predictor must report certain goodpath")
	}
	c1 := p.BranchFetched(condEvent(0))
	c2 := p.BranchFetched(condEvent(5))
	if p.EncodedSum() != int64(c1.Encoded)+int64(c2.Encoded) {
		t.Fatal("sum must equal sum of contributions")
	}
	p.BranchResolved(c1)
	p.BranchSquashed(c2)
	if p.EncodedSum() != 0 {
		t.Fatalf("drained sum = %d, want 0", p.EncodedSum())
	}
}

func TestPaCoIgnoresNonConditional(t *testing.T) {
	p := NewPaCo(PaCoConfig{})
	c := p.BranchFetched(BranchEvent{PC: 0x4, Conditional: false})
	if c.Tracked || p.EncodedSum() != 0 {
		t.Fatal("non-conditional control flow must not affect the sum")
	}
	p.BranchResolved(c) // must be harmless
	if p.EncodedSum() != 0 {
		t.Fatal("resolving an untracked contribution changed the sum")
	}
}

// TestPaCoSumDrainsToZero: property — any interleaving of fetches with
// matching resolves/squashes returns the sum to zero.
func TestPaCoSumDrainsToZero(t *testing.T) {
	p := NewPaCo(PaCoConfig{})
	r := rng.NewStream(42, 0)
	if err := quick.Check(func(seed uint32) bool {
		var live []Contribution
		for i := 0; i < 50; i++ {
			switch {
			case len(live) == 0 || r.Bool(0.5):
				live = append(live, p.BranchFetched(condEvent(uint32(r.Intn(16)))))
			case r.Bool(0.5):
				c := live[len(live)-1]
				live = live[:len(live)-1]
				p.BranchResolved(c)
			default:
				c := live[len(live)-1]
				live = live[:len(live)-1]
				p.BranchSquashed(c)
			}
		}
		for _, c := range live {
			p.BranchResolved(c)
		}
		return p.EncodedSum() == 0
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPaCoLearnsBucketRates: train two buckets at different rates and
// check the refreshed table orders and approximates them.
func TestPaCoLearnsBucketRates(t *testing.T) {
	p := NewPaCo(PaCoConfig{RefreshPeriod: 1000})
	r := rng.NewStream(7, 0)
	for i := 0; i < 20000; i++ {
		p.BranchRetired(condEvent(0), !r.Bool(0.40))
		p.BranchRetired(condEvent(8), !r.Bool(0.05))
	}
	p.Refresh()
	table := p.Table()
	r0 := 1 - bitutil.DecodeProb(int64(table[0]))
	r8 := 1 - bitutil.DecodeProb(int64(table[8]))
	if math.Abs(r0-0.40) > 0.08 {
		t.Fatalf("bucket 0 learned rate %.3f, want ~0.40", r0)
	}
	if math.Abs(r8-0.05) > 0.03 {
		t.Fatalf("bucket 8 learned rate %.3f, want ~0.05", r8)
	}
	if table[0] <= table[8] {
		t.Fatal("higher mispredict bucket must have larger encoding")
	}
}

func TestPaCoEmptyBucketKeepsEncoding(t *testing.T) {
	p := NewPaCo(PaCoConfig{})
	before := p.Table()[13]
	p.BranchRetired(condEvent(2), false) // only bucket 2 sees samples
	p.Refresh()
	if p.Table()[13] != before {
		t.Fatal("bucket with no samples lost its previous encoding on refresh")
	}
}

func TestPaCoTickRefreshPeriod(t *testing.T) {
	p := NewPaCo(PaCoConfig{RefreshPeriod: 100})
	p.Tick(50)
	if p.Refreshes() != 0 {
		t.Fatal("refreshed before the period elapsed")
	}
	p.Tick(100)
	if p.Refreshes() != 1 {
		t.Fatal("did not refresh at the period boundary")
	}
	p.Tick(150)
	if p.Refreshes() != 1 {
		t.Fatal("refreshed again before the next period")
	}
	p.Tick(205)
	if p.Refreshes() != 2 {
		t.Fatal("missed the second refresh")
	}
}

func TestPaCoReset(t *testing.T) {
	p := NewPaCo(PaCoConfig{})
	p.BranchFetched(condEvent(0))
	p.BranchRetired(condEvent(0), false)
	p.Reset()
	if p.EncodedSum() != 0 {
		t.Fatal("Reset did not clear the sum")
	}
	if c, m := p.MRTCounts(0); c != 0 || m != 0 {
		t.Fatal("Reset did not clear the MRT")
	}
}

func TestPaCoCustomInitialTable(t *testing.T) {
	var table [confidence.NumBuckets]uint32
	for i := range table {
		table[i] = uint32(i * 10)
	}
	p := NewPaCo(PaCoConfig{InitialTable: &table})
	if p.Table() != table {
		t.Fatal("initial table not applied")
	}
	c := p.BranchFetched(condEvent(3))
	if c.Encoded != 30 {
		t.Fatalf("contribution %d, want 30", c.Encoded)
	}
}

func TestMRTHalvingPreservesRate(t *testing.T) {
	m := NewMRT()
	r := rng.NewStream(9, 0)
	// Feed far more samples than the 6-bit mispredict counter holds.
	for i := 0; i < 5000; i++ {
		m.Record(0, !r.Bool(0.25))
	}
	c, mp := m.Counts(0)
	rate := float64(mp) / float64(c+mp)
	if math.Abs(rate-0.25) > 0.08 {
		t.Fatalf("post-halving rate %.3f, want ~0.25", rate)
	}
	if c > 1023 || mp > 63 {
		t.Fatalf("counters exceeded widths: %d/%d", c, mp)
	}
}

func TestMRTEncodeEmpty(t *testing.T) {
	m := NewMRT()
	if _, ok := m.Encode(4); ok {
		t.Fatal("empty bucket must not encode")
	}
	m.Record(4, true)
	if enc, ok := m.Encode(4); !ok || enc != 0 {
		t.Fatalf("all-correct bucket encoded to %d,%v", enc, ok)
	}
}

func TestMRTOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range bucket did not panic")
		}
	}()
	NewMRT().Record(16, true)
}

func TestCountPredictor(t *testing.T) {
	cp := NewCountPredictor(3)
	low := cp.BranchFetched(condEvent(1))
	high := cp.BranchFetched(condEvent(7))
	if cp.Count() != 1 {
		t.Fatalf("count = %d, want 1 (only MDC<3 counts)", cp.Count())
	}
	if !low.Tracked || high.Tracked {
		t.Fatal("tracking flags wrong")
	}
	cp.BranchResolved(high) // untracked: no effect
	cp.BranchSquashed(low)
	if cp.Count() != 0 {
		t.Fatalf("drained count = %d", cp.Count())
	}
	if cp.Threshold() != 3 {
		t.Fatal("threshold accessor")
	}
}

func TestCountPredictorNonConditional(t *testing.T) {
	cp := NewCountPredictor(3)
	c := cp.BranchFetched(BranchEvent{MDC: 0, Conditional: false})
	if c.Tracked || cp.Count() != 0 {
		t.Fatal("non-conditional branches must not be counted")
	}
}

func TestStaticMRTFixedTable(t *testing.T) {
	s := NewStaticMRT(nil)
	c := s.BranchFetched(condEvent(0))
	want := DefaultStaticProfile()[0]
	if c.Encoded != want {
		t.Fatalf("static encoding %d, want %d", c.Encoded, want)
	}
	// Training must not change anything.
	for i := 0; i < 1000; i++ {
		s.BranchRetired(condEvent(0), false)
	}
	s.Tick(1 << 30)
	c2 := s.BranchFetched(condEvent(0))
	if c2.Encoded != want {
		t.Fatal("static table drifted")
	}
	s.BranchResolved(c)
	s.BranchResolved(c2)
	if s.EncodedSum() != 0 {
		t.Fatal("static sum accounting broken")
	}
}

func TestPerBranchMRTLearnsPerBranch(t *testing.T) {
	p := NewPerBranchMRT(1024)
	r := rng.NewStream(13, 0)
	good := BranchEvent{PC: 0x100, History: 0, Conditional: true}
	bad := BranchEvent{PC: 0x204, History: 0, Conditional: true}
	for i := 0; i < 4000; i++ {
		p.BranchRetired(good, !r.Bool(0.02))
		p.BranchRetired(bad, !r.Bool(0.45))
	}
	cg := p.BranchFetched(good)
	cb := p.BranchFetched(bad)
	if cg.Encoded >= cb.Encoded {
		t.Fatalf("per-branch encodings not ordered: good=%d bad=%d", cg.Encoded, cb.Encoded)
	}
	p.BranchResolved(cg)
	p.BranchResolved(cb)
	if p.EncodedSum() != 0 {
		t.Fatal("per-branch sum accounting broken")
	}
}

func TestPerBranchMRTPrior(t *testing.T) {
	p := NewPerBranchMRT(64)
	c := p.BranchFetched(BranchEvent{PC: 0xdead, Conditional: true})
	if c.Encoded == 0 {
		t.Fatal("never-seen branch should carry the prior encoding, not certainty")
	}
	p.BranchResolved(c)
}

func TestDefaultStaticProfileMonotone(t *testing.T) {
	prof := DefaultStaticProfile()
	for i := 1; i < len(prof); i++ {
		if prof[i] > prof[i-1] {
			t.Fatalf("default profile not non-increasing at %d", i)
		}
	}
}

// TestAllEstimatorsDrain: shared property — fetch/resolve pairs leave every
// probabilistic estimator at a zero sum.
func TestAllEstimatorsDrain(t *testing.T) {
	ests := []Probabilistic{
		NewPaCo(PaCoConfig{}),
		NewStaticMRT(nil),
		NewPerBranchMRT(256),
	}
	r := rng.NewStream(21, 0)
	for _, e := range ests {
		var live []Contribution
		for i := 0; i < 500; i++ {
			ev := BranchEvent{PC: r.Uint64(), History: r.Uint32() & 0xFF,
				MDC: uint32(r.Intn(16)), Conditional: r.Bool(0.8)}
			live = append(live, e.BranchFetched(ev))
			if r.Bool(0.6) && len(live) > 0 {
				e.BranchResolved(live[len(live)-1])
				live = live[:len(live)-1]
			}
		}
		for _, c := range live {
			e.BranchSquashed(c)
		}
		if e.EncodedSum() != 0 {
			t.Fatalf("%T did not drain to zero: %d", e, e.EncodedSum())
		}
		if e.GoodpathProb() != 1 {
			t.Fatalf("%T drained prob != 1", e)
		}
	}
}

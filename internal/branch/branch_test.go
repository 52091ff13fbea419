package branch

import (
	"testing"
	"testing/quick"

	"paco/internal/rng"
)

func TestHistoryPushRestore(t *testing.T) {
	h := NewHistory(8)
	h.Push(true)
	h.Push(false)
	h.Push(true)
	if h.Value() != 0b101 {
		t.Fatalf("history = %b, want 101", h.Value())
	}
	cp := h.Checkpoint()
	h.Push(true)
	h.Push(true)
	h.Restore(cp)
	if h.Value() != 0b101 {
		t.Fatalf("restored history = %b", h.Value())
	}
}

func TestHistoryMasks(t *testing.T) {
	h := NewHistory(4)
	for i := 0; i < 100; i++ {
		h.Push(true)
	}
	if h.Value() != 0xF {
		t.Fatalf("4-bit history = %x", h.Value())
	}
	if h.Width() != 4 {
		t.Fatalf("width = %d", h.Width())
	}
}

func TestHistoryWidthPanics(t *testing.T) {
	for _, w := range []uint{0, 33} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("width %d did not panic", w)
				}
			}()
			NewHistory(w)
		}()
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	b := NewBimodal(1024)
	pc := uint64(0x4000)
	for i := 0; i < 10; i++ {
		b.Update(pc, 0, false)
	}
	if b.Predict(pc, 0) {
		t.Fatal("bimodal failed to learn a never-taken branch")
	}
	for i := 0; i < 10; i++ {
		b.Update(pc, 0, true)
	}
	if !b.Predict(pc, 0) {
		t.Fatal("bimodal failed to relearn a taken branch")
	}
}

func TestBimodalHysteresis(t *testing.T) {
	b := NewBimodal(64)
	pc := uint64(0x40)
	for i := 0; i < 5; i++ {
		b.Update(pc, 0, true)
	}
	// One not-taken must not flip a saturated taken prediction.
	b.Update(pc, 0, false)
	if !b.Predict(pc, 0) {
		t.Fatal("2-bit counter flipped after a single contrary outcome")
	}
}

func TestGshareUsesHistory(t *testing.T) {
	g := NewGshare(4096)
	pc := uint64(0x8000)
	// Outcome = function of history: taken iff history == 0b1.
	for i := 0; i < 50; i++ {
		g.Update(pc, 1, true)
		g.Update(pc, 2, false)
	}
	if !g.Predict(pc, 1) || g.Predict(pc, 2) {
		t.Fatal("gshare failed to separate outcomes by history")
	}
}

func TestTournamentSelectsBetterComponent(t *testing.T) {
	tp := NewTournament(TournamentConfig{GshareEntries: 4096, BimodalEntries: 4096, SelectorEntries: 4096})
	pc := uint64(0xc000)
	// History-correlated branch: gshare can learn it, bimodal cannot.
	for i := 0; i < 200; i++ {
		hist := uint32(i % 4)
		taken := hist&1 == 1
		// Train with the same (pc, hist) the prediction would use.
		tp.Update(pc, hist, taken)
	}
	correct := 0
	for i := 0; i < 100; i++ {
		hist := uint32(i % 4)
		taken := hist&1 == 1
		if tp.Predict(pc, hist) == taken {
			correct++
		}
		tp.Update(pc, hist, taken)
	}
	if correct < 95 {
		t.Fatalf("tournament got %d/100 on a gshare-learnable branch", correct)
	}
}

func TestTournamentBiasedAccuracy(t *testing.T) {
	tp := NewTournament(DefaultTournamentConfig())
	r := rng.NewStream(11, 0)
	pc := uint64(0x1234)
	misses := 0
	const n = 20000
	hist := uint32(0)
	for i := 0; i < n; i++ {
		taken := r.Bool(0.98)
		if tp.Predict(pc, hist) != taken {
			misses++
		}
		tp.Update(pc, hist, taken)
		hist = hist<<1 | b2u(taken)&0xFF
	}
	rate := float64(misses) / n
	if rate > 0.06 {
		t.Fatalf("mispredict rate %.3f on a 98%%-biased branch", rate)
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func TestBTBHitAfterInsert(t *testing.T) {
	b := NewBTB(256, 4)
	b.Insert(0x1000, 0x2000)
	tgt, ok := b.Lookup(0x1000)
	if !ok || tgt != 0x2000 {
		t.Fatalf("lookup = %x,%v", tgt, ok)
	}
	if _, ok := b.Lookup(0x1004); ok {
		t.Fatal("lookup of never-inserted PC hit")
	}
}

func TestBTBUpdateTarget(t *testing.T) {
	b := NewBTB(256, 4)
	b.Insert(0x1000, 0x2000)
	b.Insert(0x1000, 0x3000)
	tgt, ok := b.Lookup(0x1000)
	if !ok || tgt != 0x3000 {
		t.Fatalf("updated target = %x,%v", tgt, ok)
	}
}

func TestBTBLRUEviction(t *testing.T) {
	// Direct construction of conflict: one set, two ways.
	b := NewBTB(2, 2)
	b.Insert(0x10, 1)
	b.Insert(0x20, 2) // same set (single-set BTB)... depends on mapping
	b.Insert(0x30, 3)
	hits := 0
	for _, pc := range []uint64{0x10, 0x20, 0x30} {
		if _, ok := b.Lookup(pc); ok {
			hits++
		}
	}
	if hits > 2 {
		t.Fatalf("2-way single-set BTB held %d entries", hits)
	}
}

func TestBTBStats(t *testing.T) {
	b := NewBTB(64, 2)
	b.Insert(0x40, 0x80)
	b.Lookup(0x40)
	b.Lookup(0x44)
	lookups, hits := b.Stats()
	if lookups != 2 || hits != 1 {
		t.Fatalf("stats = %d lookups, %d hits", lookups, hits)
	}
}

func TestRASLIFO(t *testing.T) {
	r := NewRAS(8)
	r.Push(1)
	r.Push(2)
	r.Push(3)
	for want := uint64(3); want >= 1; want-- {
		if got := r.Pop(); got != want {
			t.Fatalf("Pop = %d, want %d", got, want)
		}
	}
}

func TestRASWrapAround(t *testing.T) {
	r := NewRAS(4)
	for i := uint64(1); i <= 6; i++ {
		r.Push(i)
	}
	// Depth 4: pushes 3..6 survive, oldest overwritten.
	if got := r.Pop(); got != 6 {
		t.Fatalf("top = %d", got)
	}
	if got := r.Pop(); got != 5 {
		t.Fatalf("second = %d", got)
	}
}

// TestBTBProperty: inserting then immediately looking up always hits with
// the inserted target (no silent drops), for arbitrary PCs.
func TestBTBProperty(t *testing.T) {
	b := NewBTB(1024, 4)
	if err := quick.Check(func(pc, target uint64) bool {
		b.Insert(pc, target)
		got, ok := b.Lookup(pc)
		return ok && got == target
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkTournament measures the Table 6 tournament predictor's
// per-branch cost: ns/op is one Predict and one Update, over a seeded
// stream of 1,024 static branches spread across the tables, each biased
// taken or not taken, with the 8-bit global history their outcomes build.
func BenchmarkTournament(b *testing.B) {
	type branchOp struct {
		pc      uint64
		history uint32
		taken   bool
	}
	r := rng.NewStream(5, 0)
	pcs := make([]uint64, 1024)
	bias := make([]rng.Threshold, len(pcs))
	for k := range pcs {
		pcs[k] = uint64(r.Intn(1<<20)) << 2
		bias[k] = rng.NewThreshold(r.Float64())
	}
	stream := make([]branchOp, 1<<14)
	h := NewHistory(8)
	for i := range stream {
		k := r.Intn(len(pcs))
		taken := r.Below(bias[k])
		stream[i] = branchOp{pcs[k], h.Value(), taken}
		h.Push(taken)
	}
	t := NewTournament(DefaultTournamentConfig())
	i := 0
	for b.Loop() {
		op := stream[i&(len(stream)-1)]
		i++
		t.Predict(op.pc, op.history)
		t.Update(op.pc, op.history, op.taken)
	}
}

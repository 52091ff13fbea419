package branch

import (
	"math/bits"

	"paco/internal/bitutil"
)

// A DirectionPredictor predicts conditional branch directions. Predict is
// called at fetch with the branch PC and the current speculative global
// history; Update is called at retire with the same PC/history the
// prediction used and the actual outcome.
type DirectionPredictor interface {
	// Predict returns the predicted direction for the branch at pc given
	// the global history at prediction time.
	Predict(pc uint64, history uint32) bool
	// Update trains the predictor with the resolved outcome. history must
	// be the history value that Predict saw.
	Update(pc uint64, history uint32, taken bool)
}

// Bimodal is a classic table of 2-bit saturating counters indexed by the
// low bits of the branch PC.
type Bimodal struct {
	counters bitutil.CounterTable
	mask     uint64
}

// NewBimodal returns a bimodal predictor with the given number of entries
// (rounded up to a power of two). Counters initialize to weakly taken.
func NewBimodal(entries int) *Bimodal {
	n := nextPow2(entries)
	return &Bimodal{counters: bitutil.NewCounterTable(n, 2, 2), mask: uint64(n - 1)}
}

func (b *Bimodal) index(pc uint64) uint64 { return (pc >> 2) & b.mask }

// Predict implements DirectionPredictor.
func (b *Bimodal) Predict(pc uint64, _ uint32) bool {
	return b.counters.MSB(b.index(pc))
}

// Update implements DirectionPredictor.
func (b *Bimodal) Update(pc uint64, _ uint32, taken bool) {
	i := b.index(pc)
	if taken {
		b.counters.Inc(i)
	} else {
		b.counters.Dec(i)
	}
}

// Gshare XORs the branch PC with the global history to index a table of
// 2-bit counters, capturing history-correlated behaviour.
type Gshare struct {
	counters bitutil.CounterTable
	mask     uint64
}

// NewGshare returns a gshare predictor with the given number of entries
// (rounded up to a power of two). Counters initialize to weakly taken.
func NewGshare(entries int) *Gshare {
	n := nextPow2(entries)
	return &Gshare{counters: bitutil.NewCounterTable(n, 2, 2), mask: uint64(n - 1)}
}

func (g *Gshare) index(pc uint64, history uint32) uint64 {
	return ((pc >> 2) ^ uint64(history)) & g.mask
}

// Predict implements DirectionPredictor.
func (g *Gshare) Predict(pc uint64, history uint32) bool {
	return g.counters.MSB(g.index(pc, history))
}

// Update implements DirectionPredictor.
func (g *Gshare) Update(pc uint64, history uint32, taken bool) {
	i := g.index(pc, history)
	if taken {
		g.counters.Inc(i)
	} else {
		g.counters.Dec(i)
	}
}

// Tournament is the hybrid predictor of Table 6: a gshare component, a
// bimodal component, and a selector table of 2-bit counters (indexed like
// gshare) that learns which component to trust per branch.
type Tournament struct {
	gshare   *Gshare
	bimodal  *Bimodal
	selector bitutil.CounterTable
	selMask  uint64
}

// TournamentConfig sizes the three component tables in entries. The paper's
// configuration is 32KB each of 2-bit counters: 128K entries per table, with
// 8 bits of global history. Each table is a bitutil.CounterTable, which
// packs four 2-bit counters to a byte, so 128K entries occupy 32 KiB.
type TournamentConfig struct {
	GshareEntries   int
	BimodalEntries  int
	SelectorEntries int
}

// DefaultTournamentConfig is the paper's Table 6 predictor: a 96KB hybrid
// made of 32KB gshare + 32KB bimodal + 32KB selector, i.e. 128K 2-bit
// counters per table. The counters are packed four to a byte, so the
// tables occupy the paper's 96 KiB here too.
func DefaultTournamentConfig() TournamentConfig {
	const entriesPer32KB = 32 * 1024 * 4 // 4 two-bit counters per byte
	return TournamentConfig{
		GshareEntries:   entriesPer32KB,
		BimodalEntries:  entriesPer32KB,
		SelectorEntries: entriesPer32KB,
	}
}

// NewTournament builds a tournament predictor from cfg. Selector counters
// initialize to weakly-prefer-gshare.
func NewTournament(cfg TournamentConfig) *Tournament {
	n := nextPow2(cfg.SelectorEntries)
	t := &Tournament{
		gshare:   NewGshare(cfg.GshareEntries),
		bimodal:  NewBimodal(cfg.BimodalEntries),
		selector: bitutil.NewCounterTable(n, 2, 2), // MSB set: use gshare
		selMask:  uint64(n - 1),
	}
	return t
}

func (t *Tournament) selIndex(pc uint64, history uint32) uint64 {
	return ((pc >> 2) ^ uint64(history)) & t.selMask
}

// Predict implements DirectionPredictor.
func (t *Tournament) Predict(pc uint64, history uint32) bool {
	if t.selector.MSB(t.selIndex(pc, history)) {
		return t.gshare.Predict(pc, history)
	}
	return t.bimodal.Predict(pc, history)
}

// Update implements DirectionPredictor. Both components always train; the
// selector moves toward the component that was correct when they disagree.
func (t *Tournament) Update(pc uint64, history uint32, taken bool) {
	gp := t.gshare.Predict(pc, history)
	bp := t.bimodal.Predict(pc, history)
	if gp != bp {
		i := t.selIndex(pc, history)
		if gp == taken {
			t.selector.Inc(i)
		} else {
			t.selector.Dec(i)
		}
	}
	t.gshare.Update(pc, history, taken)
	t.bimodal.Update(pc, history, taken)
}

func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

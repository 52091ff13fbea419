// Package confidence implements branch confidence estimation: the enhanced
// JRS predictor (Grunwald et al., "Confidence estimation for speculation
// control") used by the paper as both the conventional baseline's classifier
// and PaCo's stratifier.
//
// The JRS predictor keeps a table of 4-bit saturating miss distance counters
// (MDCs). An MDC counts consecutive correct predictions of the branches that
// hash to it: incremented on a correct prediction, reset on a mispredict.
// High MDC values indicate predictable branches. The enhanced variant folds
// the predicted direction into the hash.
package confidence

import "paco/internal/bitutil"

// MDCBits is the width of each miss distance counter (paper: 4-bit MDCs).
const MDCBits = 4

// MDCMax is the saturation value of an MDC (15 for 4-bit counters), and
// therefore the number of MDC buckets is MDCMax+1.
const MDCMax = 1<<MDCBits - 1

// NumBuckets is the number of distinct MDC values, i.e. the number of
// stratification buckets PaCo's MRT tracks.
const NumBuckets = MDCMax + 1

// JRS is the enhanced JRS confidence table: 8KB of 4-bit MDCs = 16384
// entries, indexed by (PC >> 2) XOR global-history XOR predicted-direction.
type JRS struct {
	mdcs     bitutil.CounterTable
	mask     uint64
	enhanced bool
}

// Config sizes and flavours a JRS table.
type Config struct {
	// Entries is the number of MDCs (rounded up to a power of two).
	// The paper's 8KB table of 4-bit counters is 16384 entries.
	Entries int
	// Enhanced folds the predicted direction into the index (Grunwald's
	// enhanced JRS, the paper's choice).
	Enhanced bool
}

// DefaultConfig is the paper's 8KB enhanced JRS table.
func DefaultConfig() Config {
	return Config{Entries: 16384, Enhanced: true}
}

// New builds a JRS table from cfg. MDCs initialize to zero (everything is
// low-confidence until it proves itself, matching cold hardware).
func New(cfg Config) *JRS {
	n := 1
	for n < cfg.Entries {
		n <<= 1
	}
	return &JRS{
		mdcs:     bitutil.NewCounterTable(n, MDCBits, 0),
		mask:     uint64(n - 1),
		enhanced: cfg.Enhanced,
	}
}

func (j *JRS) index(pc uint64, history uint32, predictedTaken bool) uint64 {
	idx := (pc >> 2) ^ uint64(history)
	if j.enhanced && predictedTaken {
		idx ^= 1
	}
	return idx & j.mask
}

// MDC returns the miss distance counter value for a branch at prediction
// time. The value doubles as PaCo's stratification bucket.
func (j *JRS) MDC(pc uint64, history uint32, predictedTaken bool) uint32 {
	return j.mdcs.Value(j.index(pc, history, predictedTaken))
}

// Update trains the table with a resolved branch: the entry's MDC is
// incremented (saturating) on a correct prediction and reset on a
// mispredict. pc/history/predictedTaken must be the values used at
// prediction time.
func (j *JRS) Update(pc uint64, history uint32, predictedTaken, correct bool) {
	i := j.index(pc, history, predictedTaken)
	if correct {
		j.mdcs.Inc(i)
	} else {
		j.mdcs.Reset(i)
	}
}

// Classifier converts MDC values into the 1-bit high/low confidence signal
// used by threshold-and-count path confidence predictors: branches with
// MDC >= Threshold are high confidence.
type Classifier struct {
	// Threshold is the minimum MDC value considered high confidence.
	// The paper uses thresholds 3, 7, 11 and 15 in its sweeps, with 3 the
	// conventional best.
	Threshold uint32
}

// LowConfidence reports whether a branch with the given MDC value is
// classified low confidence.
func (c Classifier) LowConfidence(mdc uint32) bool { return mdc < c.Threshold }

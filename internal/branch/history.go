// Package branch implements the front-end branch prediction machinery of
// the simulated processor: two-bit bimodal and gshare direction predictors,
// the tournament (hybrid) predictor from the paper's Table 6, a
// set-associative branch target buffer, a return address stack, and a
// speculative global history register with checkpoint/restore.
package branch

// History is a global branch history register (GHR). It is updated
// speculatively at fetch with the *predicted* direction and restored from a
// checkpoint when a mispredicted branch squashes younger state, so the
// predictor tables always see the history the hardware would.
type History struct {
	bits  uint32
	width uint
	mask  uint32
}

// NewHistory returns a history register with the given width in bits
// (1..32).
func NewHistory(width uint) *History {
	if width == 0 || width > 32 {
		panic("branch: history width out of range")
	}
	return &History{width: width, mask: uint32(1<<width - 1)}
}

// Push shifts a direction into the history (true = taken).
func (h *History) Push(taken bool) {
	h.bits <<= 1
	if taken {
		h.bits |= 1
	}
	h.bits &= h.mask
}

// Value returns the current history bits.
func (h *History) Value() uint32 { return h.bits }

// Checkpoint captures the current history for later restore.
func (h *History) Checkpoint() uint32 { return h.bits }

// Restore rewinds the history to a previously captured checkpoint.
func (h *History) Restore(cp uint32) { h.bits = cp & h.mask }

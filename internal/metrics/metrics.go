// Package metrics implements the measurement machinery of the paper's
// evaluation: reliability diagrams for probabilistic forecast systems
// (Murphy & Winkler; paper Section 4.3), the RMS error between predicted
// and observed probabilities, and the harmonic mean of weighted IPCs
// (HMWIPC) used for SMT fetch prioritization.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// ReliabilityBins is the number of predicted-probability bins: one per
// percentage point, matching the paper's diagrams.
const ReliabilityBins = 101

// Reliability accumulates (predicted probability, observed outcome) pairs
// into per-percent bins. For each bin it tracks how often the processor was
// actually on the goodpath — the observed probability the diagrams plot
// against the predicted one.
type Reliability struct {
	count [ReliabilityBins]uint64
	good  [ReliabilityBins]uint64
}

// Add records one instance: a predicted goodpath probability in [0, 1] and
// the goodpath oracle at that instant.
func (r *Reliability) Add(predicted float64, goodpath bool) {
	bin := int(math.Round(predicted * 100))
	if bin < 0 {
		bin = 0
	}
	if bin >= ReliabilityBins {
		bin = ReliabilityBins - 1
	}
	r.count[bin]++
	if goodpath {
		r.good[bin]++
	}
}

// Merge adds another diagram's instances into r.
func (r *Reliability) Merge(o *Reliability) {
	for i := range r.count {
		r.count[i] += o.count[i]
		r.good[i] += o.good[i]
	}
}

// Instances returns the total number of recorded instances.
func (r *Reliability) Instances() uint64 {
	var n uint64
	for _, c := range r.count {
		n += c
	}
	return n
}

// Point is one populated bin of a reliability diagram.
type Point struct {
	// Predicted is the bin's predicted goodpath probability in percent.
	Predicted int
	// Observed is the measured goodpath probability of the bin's
	// instances, in percent.
	Observed float64
	// Count is the bin occupancy (the diagram's histogram).
	Count uint64
}

// Points returns all populated bins in predicted order.
func (r *Reliability) Points() []Point {
	var pts []Point
	for i, c := range r.count {
		if c == 0 {
			continue
		}
		pts = append(pts, Point{
			Predicted: i,
			Observed:  100 * float64(r.good[i]) / float64(c),
			Count:     c,
		})
	}
	return pts
}

// RMSError returns the occupancy-weighted RMS error between predicted and
// observed probabilities, on the 0..1 scale the paper's Table 7 uses
// (e.g. 0.0377 for the mean).
func (r *Reliability) RMSError() float64 {
	var sum float64
	var n uint64
	for i, c := range r.count {
		if c == 0 {
			continue
		}
		pred := float64(i) / 100
		obs := float64(r.good[i]) / float64(c)
		d := pred - obs
		sum += float64(c) * d * d
		n += c
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(n))
}

// Resolution returns the resolution term of the Murphy decomposition of
// the Brier score: the occupancy-weighted variance of each bin's
// observed goodpath frequency around the overall base rate, on the 0..1
// probability scale (returned as its square root, an RMS spread, so it
// reads on the same scale as RMSError). Calibration alone (RMSError)
// rewards a constant predictor that always answers the base rate;
// resolution is the complementary axis — how much the predictor's
// distinct answers actually separate outcomes — and a constant predictor
// scores exactly zero.
func (r *Reliability) Resolution() float64 {
	var n, good uint64
	for i := range r.count {
		n += r.count[i]
		good += r.good[i]
	}
	if n == 0 {
		return 0
	}
	base := float64(good) / float64(n)
	var sum float64
	for i, c := range r.count {
		if c == 0 {
			continue
		}
		obs := float64(r.good[i]) / float64(c)
		d := obs - base
		sum += float64(c) * d * d
	}
	return math.Sqrt(sum / float64(n))
}

// HMWIPC returns the harmonic mean of weighted IPCs (Equation 6):
// N / sum(SingleIPC_i / IPC_i). singleIPC and smtIPC must be parallel,
// non-empty, positive slices.
func HMWIPC(singleIPC, smtIPC []float64) float64 {
	if len(singleIPC) != len(smtIPC) || len(singleIPC) == 0 {
		panic("metrics: HMWIPC needs parallel non-empty slices")
	}
	var denom float64
	for i := range singleIPC {
		if smtIPC[i] <= 0 {
			return 0
		}
		denom += singleIPC[i] / smtIPC[i]
	}
	return float64(len(singleIPC)) / denom
}

// Table renders rows of columns as an aligned text table with a header.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable starts a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// Row appends a row; values are formatted with %v, floats with 4 decimals.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

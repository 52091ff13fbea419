package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"paco/internal/campaign"
	"paco/internal/core"
	"paco/internal/metrics"
)

func init() {
	register("table7", Table7Report)
	register("fig8", Figure8Report)
	register("fig9", Figure9Report)
}

// Table7Row is one benchmark's accuracy measurement: PaCo RMS error plus
// the overall (all control flow) and conditional branch mispredict rates,
// exactly the columns of the paper's Table 7.
type Table7Row struct {
	Benchmark   string
	RMS         float64
	OverallMR   float64
	CondMR      float64
	Reliability *metrics.Reliability
}

// Table7 is the full accuracy study; Cumulative merges every benchmark's
// instances (the paper's Figure 9(f)).
type Table7 struct {
	Rows       []Table7Row
	MeanRMS    float64
	Cumulative *metrics.Reliability
}

// RunTable7 measures PaCo's goodpath-probability accuracy on every
// benchmark: at each instance (fetch or execute event) the predicted
// probability is compared against the goodpath oracle in a reliability
// diagram, whose occupancy-weighted RMS error is the paper's metric.
func RunTable7(cfg Config, benchmarks []string) (*Table7, error) {
	if benchmarks == nil {
		benchmarks = allBenchmarks()
	}
	rels := make([]*metrics.Reliability, len(benchmarks))
	jobs := make([]campaign.Job, len(benchmarks))
	for i, name := range benchmarks {
		i := i
		jobs[i] = benchJob(cfg, name, cfg.Instructions, cfg.Warmup, func() campaign.Hooks {
			paco := core.NewPaCo(core.PaCoConfig{RefreshPeriod: cfg.RefreshPeriod})
			rel := &metrics.Reliability{}
			rels[i] = rel
			return relHooks([]core.Estimator{paco}, []core.Probabilistic{paco}, []*metrics.Reliability{rel})
		})
	}
	results, err := runJobs(cfg, jobs)
	if err != nil {
		return nil, err
	}
	out := &Table7{Cumulative: &metrics.Reliability{}}
	var rmsSum float64
	for i, name := range benchmarks {
		st := results[i].Stats
		rel := rels[i]
		row := Table7Row{
			Benchmark:   name,
			RMS:         rel.RMSError(),
			OverallMR:   st.CtrlMispredictRate(),
			CondMR:      st.CondMispredictRate(),
			Reliability: rel,
		}
		out.Rows = append(out.Rows, row)
		out.Cumulative.Merge(rel)
		rmsSum += row.RMS
	}
	out.MeanRMS = rmsSum / float64(len(out.Rows))
	return out, nil
}

// Table renders the paper's Table 7 columns.
func (t7 *Table7) Table() *metrics.Table {
	t := metrics.NewTable("Benchmark", "PaCo RMS Error", "Overall Mispredict %", "Cond. Br. Mispredict %")
	for _, r := range t7.Rows {
		t.Row(r.Benchmark, r.RMS, fmt.Sprintf("%.2f", r.OverallMR), fmt.Sprintf("%.2f", r.CondMR))
	}
	t.Row("mean", t7.MeanRMS, "", "")
	return t
}

// Row returns the named benchmark's row, if present.
func (t7 *Table7) Row(name string) (Table7Row, bool) {
	for _, r := range t7.Rows {
		if r.Benchmark == name {
			return r, true
		}
	}
	return Table7Row{}, false
}

// ranking names the n benchmarks with the lowest RMS error, lowest
// first, and the n with the highest, highest first; equal errors order
// by name.
func (t7 *Table7) ranking(n int) (best, worst []string) {
	byRMS := func(highestFirst bool) []string {
		rows := append([]Table7Row(nil), t7.Rows...)
		sort.Slice(rows, func(i, j int) bool {
			a, b := rows[i], rows[j]
			if a.RMS != b.RMS {
				return (a.RMS < b.RMS) != highestFirst
			}
			return a.Benchmark < b.Benchmark
		})
		names := make([]string, min(n, len(rows)))
		for i := range names {
			names[i] = rows[i].Benchmark
		}
		return names
	}
	return byRMS(false), byRMS(true)
}

// Table7Report writes the full accuracy table.
func Table7Report(cfg Config, w io.Writer) error {
	t7, err := RunTable7(cfg, nil)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 7: RMS error between predicted and actual goodpath probabilities")
	fmt.Fprintln(w, "(paper: mean 0.0377; best on twolf/vortex/vpr, worst on gcc/gap/perlbmk)")
	best, worst := t7.ranking(3)
	fmt.Fprintf(w, "(measured: best on %s, worst on %s)\n", strings.Join(best, "/"), strings.Join(worst, "/"))
	fmt.Fprintln(w)
	_, err = io.WriteString(w, t7.Table().String())
	return err
}

// reliabilityTable renders a reliability diagram as rows of (predicted,
// observed, occupancy) — the scatter plot plus histogram of Figures 8/9.
func reliabilityTable(rel *metrics.Reliability) *metrics.Table {
	t := metrics.NewTable("predicted %", "observed %", "instances")
	for _, p := range rel.Points() {
		t.Row(p.Predicted, fmt.Sprintf("%.1f", p.Observed), p.Count)
	}
	return t
}

// Figure8Report writes parser's reliability diagram (the paper's worked
// example).
func Figure8Report(cfg Config, w io.Writer) error {
	t7, err := RunTable7(cfg, []string{"parser"})
	if err != nil {
		return err
	}
	row := t7.Rows[0]
	fmt.Fprintf(w, "Figure 8: reliability diagram for parser (RMS error %.4f)\n", row.RMS)
	fmt.Fprintln(w, "(paper: points hug the slope-1 line; most instances at high predicted probability)")
	fmt.Fprintln(w)
	_, err = io.WriteString(w, reliabilityTable(row.Reliability).String())
	return err
}

// Figure9Report writes the representative diagrams plus the cumulative
// one.
func Figure9Report(cfg Config, w io.Writer) error {
	t7, err := RunTable7(cfg, nil)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 9: reliability diagrams (representative benchmarks + cumulative)")
	fmt.Fprintln(w, "(paper: twolf/vprRoute near-perfect; crafty good; gcc/perlbmk less accurate;")
	fmt.Fprintln(w, " systematic underestimation below ~10% predicted probability)")
	for _, name := range []string{"twolf", "vprRoute", "crafty", "gcc", "perlbmk"} {
		if row, ok := t7.Row(name); ok {
			fmt.Fprintf(w, "\n--- %s (RMS %.4f) ---\n", name, row.RMS)
			if _, err := io.WriteString(w, reliabilityTable(row.Reliability).String()); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(w, "\n--- cumulative (all benchmarks, RMS %.4f) ---\n", t7.Cumulative.RMSError())
	_, err = io.WriteString(w, reliabilityTable(t7.Cumulative).String())
	return err
}

package experiments

import (
	"fmt"
	"io"

	"paco/internal/campaign"
	"paco/internal/core"
	"paco/internal/gating"
	"paco/internal/metrics"
)

func init() { register("fig10", Figure10Report) }

// GatingPoint is one configuration's outcome averaged over benchmarks: the
// axes of the paper's Figure 10.
type GatingPoint struct {
	Config string
	// PerfLoss is the IPC loss versus no gating, in percent (negative
	// means gating *improved* performance — the pollution effect).
	PerfLoss float64
	// BadpathReduction is the reduction in badpath instructions executed,
	// in percent.
	BadpathReduction float64
	// FetchedBadReduction is the reduction in badpath instructions
	// fetched, in percent (the paper notes ~70% for PaCo at its headline
	// point).
	FetchedBadReduction float64
	// GatedCycleFrac is the fraction of cycles fetch was gated.
	GatedCycleFrac float64
}

// Figure10 holds one sweep series per predictor family.
type Figure10 struct {
	// Series maps "PaCo" and "JRS-thrN" to their sweep points, ordered
	// from least to most aggressive gating.
	Series map[string][]GatingPoint
	Order  []string
}

type gatingBaseline struct {
	ipc        float64
	execBad    float64
	fetchedBad float64
}

// RunFigure10 sweeps pipeline-gating configurations for the conventional
// predictors (each JRS threshold x each gate-count) and for PaCo (each
// target probability), averaging per-benchmark performance loss and
// badpath reduction against an ungated baseline.
func RunFigure10(cfg Config, benchmarks []string) (*Figure10, error) {
	if benchmarks == nil {
		benchmarks = allBenchmarks()
	}

	// Ungated baselines, one campaign job per benchmark.
	baseJobs := make([]campaign.Job, len(benchmarks))
	for i, name := range benchmarks {
		baseJobs[i] = benchJob(cfg, name, cfg.GatingInstructions, cfg.GatingWarmup, nil)
	}
	baseResults, err := runJobs(cfg, baseJobs)
	if err != nil {
		return nil, err
	}
	base := make([]gatingBaseline, len(benchmarks))
	for i := range benchmarks {
		r := baseResults[i]
		base[i] = gatingBaseline{
			ipc:        r.IPC,
			execBad:    float64(r.Stats.ExecutedBad),
			fetchedBad: float64(r.Stats.FetchedBad),
		}
	}

	// The sweep grid: every gate configuration, in series order.
	out := &Figure10{Series: map[string][]GatingPoint{}}
	type sweepCfg struct {
		label string
		mk    func() gating.Gate
	}
	var sweeps []sweepCfg
	for _, thr := range cfg.GateThresholds {
		name := fmt.Sprintf("JRS-thr%d", thr)
		out.Order = append(out.Order, name)
		// Sweep from conservative (high gate-count) to aggressive.
		for i := len(cfg.GateCounts) - 1; i >= 0; i-- {
			thr, gc := thr, cfg.GateCounts[i]
			sweeps = append(sweeps, sweepCfg{
				label: fmt.Sprintf("JRS-thr%d-gate%d", thr, gc),
				mk:    func() gating.Gate { return gating.NewCountGate(thr, gc) },
			})
		}
	}
	out.Order = append(out.Order, "PaCo")
	for _, p := range cfg.ProbTargets {
		p := p
		sweeps = append(sweeps, sweepCfg{
			label: fmt.Sprintf("PaCo-%02.0f%%", p*100),
			mk:    func() gating.Gate { return gating.NewProbGate(p, cfg.RefreshPeriod) },
		})
	}

	// One job per (configuration, benchmark) cell — the whole grid shards
	// across the worker pool at once.
	jobs := make([]campaign.Job, 0, len(sweeps)*len(benchmarks))
	for _, sc := range sweeps {
		for _, name := range benchmarks {
			mk := sc.mk
			job := benchJob(cfg, name, cfg.GatingInstructions, cfg.GatingWarmup, func() campaign.Hooks {
				g := mk()
				return campaign.Hooks{
					Estimators: []core.Estimator{g.Estimator()},
					Gate:       g.ShouldGate,
				}
			})
			job.ID = sc.label + "/" + name
			jobs = append(jobs, job)
		}
	}
	results, err := runJobs(cfg, jobs)
	if err != nil {
		return nil, err
	}

	// Aggregate per configuration, benchmarks in order — the summation
	// order is fixed, so points are identical at any worker count.
	k := 0
	for _, sc := range sweeps {
		pt := GatingPoint{Config: sc.label}
		n := float64(len(benchmarks))
		for i := range benchmarks {
			r := results[k]
			k++
			b := base[i]
			pt.PerfLoss += 100 * (b.ipc - r.IPC) / b.ipc
			pt.BadpathReduction += reduction(b.execBad, float64(r.Stats.ExecutedBad))
			pt.FetchedBadReduction += reduction(b.fetchedBad, float64(r.Stats.FetchedBad))
			pt.GatedCycleFrac += float64(r.Stats.GatedCycles) / float64(r.Cycles)
		}
		pt.PerfLoss /= n
		pt.BadpathReduction /= n
		pt.FetchedBadReduction /= n
		pt.GatedCycleFrac /= n
		series := seriesOf(sc.label)
		out.Series[series] = append(out.Series[series], pt)
	}
	return out, nil
}

func seriesOf(label string) string {
	if len(label) >= 4 && label[:4] == "PaCo" {
		return "PaCo"
	}
	// JRS-thrN-gateM -> JRS-thrN
	for i := 4; i < len(label); i++ {
		if label[i] == '-' {
			return label[:i]
		}
	}
	return label
}

func reduction(before, after float64) float64 {
	if before <= 0 {
		return 0
	}
	return 100 * (before - after) / before
}

// Table renders the sweep, one row per configuration.
func (f *Figure10) Table() *metrics.Table {
	t := metrics.NewTable("config", "perf loss %", "badpath exec reduction %", "badpath fetch reduction %", "gated cycles %")
	for _, series := range f.Order {
		for _, p := range f.Series[series] {
			t.Row(p.Config,
				fmt.Sprintf("%+.2f", p.PerfLoss),
				fmt.Sprintf("%.1f", p.BadpathReduction),
				fmt.Sprintf("%.1f", p.FetchedBadReduction),
				fmt.Sprintf("%.1f", 100*p.GatedCycleFrac))
		}
	}
	return t
}

// Best returns the most aggressive point of a series whose performance
// loss stays at or below maxLoss percent.
func (f *Figure10) Best(series string, maxLoss float64) (GatingPoint, bool) {
	var best GatingPoint
	found := false
	for _, p := range f.Series[series] {
		if p.PerfLoss <= maxLoss && (!found || p.BadpathReduction > best.BadpathReduction) {
			best = p
			found = true
		}
	}
	return best, found
}

// Figure10Report writes the sweep table and the headline comparison.
func Figure10Report(cfg Config, w io.Writer) error {
	f, err := RunFigure10(cfg, nil)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 10: pipeline gating — performance loss vs badpath-executed reduction")
	fmt.Fprintln(w, "(paper: PaCo reduces badpath instructions executed ~32% at ~0% perf loss;")
	fmt.Fprintln(w, " best counter predictor ~7% at ~0.1-0.2% loss; conservative PaCo gating can")
	fmt.Fprintln(w, " slightly *improve* performance by removing cache/BTB pollution)")
	fmt.Fprintln(w)
	if _, err := io.WriteString(w, f.Table().String()); err != nil {
		return err
	}
	f.writeHeadlines(w)
	return nil
}

// writeHeadlines writes the paper's two headline points: the most
// aggressive PaCo point within 0.1% loss and JRS-thr3 point within 0.3%
// loss. Changes print with their sign, so a reduction below zero reads
// as the increase it is.
func (f *Figure10) writeHeadlines(w io.Writer) {
	fmt.Fprintln(w)
	if p, ok := f.Best("PaCo", 0.1); ok {
		fmt.Fprintf(w, "headline PaCo point (<=0.1%% loss): %s -> badpath exec %+.1f%%, fetch %+.1f%%\n",
			p.Config, -p.BadpathReduction, -p.FetchedBadReduction)
	} else {
		fmt.Fprintln(w, "headline PaCo point (<=0.1% loss): none")
	}
	if p, ok := f.Best("JRS-thr3", 0.3); ok {
		fmt.Fprintf(w, "headline JRS-thr3 point (<=0.3%% loss): %s -> badpath exec %+.1f%%\n",
			p.Config, -p.BadpathReduction)
	} else {
		fmt.Fprintln(w, "headline JRS-thr3 point (<=0.3% loss): none")
	}
}

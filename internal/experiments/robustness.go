package experiments

import (
	"fmt"
	"io"

	"paco/internal/bitutil"
	"paco/internal/campaign"
	"paco/internal/core"
	"paco/internal/metrics"
	"paco/internal/scenario"
)

func init() { register("robustness", RobustnessReport) }

// The robustness study asks the estimator question the SPEC-only tables
// cannot: how does goodpath-probability accuracy hold up when the
// workload is shaped against the estimator? Each scenario family
// (internal/scenario) isolates one stressor — interpreter dispatch,
// shallow server phases, pointer chasing, phase thrash faster than the
// MRT refresh, a predictable floor, and a branch population crafted so
// per-bucket mispredict rates straddle the JRS threshold — and each is
// measured with three estimators:
//
//   - PaCo: the paper's MDC-stratified dynamic MRT.
//   - JRS-count: threshold-and-count confidence made probabilistic the
//     only way it can be without PaCo's hardware — every unresolved
//     low-confidence branch is assigned one FIXED design-time correct
//     rate (no training, no stratification). This is exactly the "single
//     mispredict rate" assumption Figure 2 argues against.
//   - perceptron: PaCo unchanged but stratified by Akkary-style
//     perceptron confidence buckets instead of the JRS MDC.
//
// Accuracy is reported on two axes: the paper's Table 7 metric
// (occupancy-weighted RMS error of a reliability diagram against the
// goodpath oracle — calibration) and the Murphy-decomposition resolution
// (discrimination). The pairing matters because a hedging, near-constant
// model can look well calibrated while separating nothing; and a fixed
// assumed rate cannot follow the workload — on the predictable floor
// case its pessimism is unfixable, which is where the trained, stratified
// estimator wins outright.

// jrsCountProb is the JRS-count column's estimator: the conventional
// threshold-and-count predictor (Figure 1) with its implicit probability
// model made explicit — P(goodpath) = q^count for a fixed design-time
// per-branch correct rate q. Each unresolved low-confidence branch (MDC
// below the threshold) contributes the same fixed encoding; branches at
// or above the threshold are treated as certain, which is precisely what
// count gating assumes. The rate is NOT trained: without PaCo's
// logarithmization circuit there is no hardware path from measured rates
// to encodings, so the count's single q is frozen at design time — and
// any workload whose low-confidence population misses q (which is what
// adversarial-mdc arranges) is systematically mis-estimated.
// It embeds the real threshold-and-count predictor for the entire
// branch lifecycle, adding only the probability view: every tracked
// branch carries the same fixed encoding, so the encoded sum is simply
// count times that encoding.
type jrsCountProb struct {
	*core.CountPredictor
	enc uint32 // fixed encoding of the design-time rate
}

// jrsCountAssumedRate is the design-time per-low-confidence-branch
// correct rate: the middle of the band Figure 2 measures for buckets
// under the conventional threshold.
const jrsCountAssumedRate = 0.85

func newJRSCountProb(thr uint32) *jrsCountProb {
	return &jrsCountProb{
		CountPredictor: core.NewCountPredictor(thr),
		enc:            bitutil.ExactEncode(jrsCountAssumedRate),
	}
}

// EncodedSum implements core.Probabilistic.
func (j *jrsCountProb) EncodedSum() int64 { return int64(j.Count()) * int64(j.enc) }

// GoodpathProb implements core.Probabilistic.
func (j *jrsCountProb) GoodpathProb() float64 { return bitutil.DecodeProb(j.EncodedSum()) }

var _ core.Probabilistic = (*jrsCountProb)(nil)

// RobustnessRow is one scenario's accuracy measurement. RMS columns are
// calibration (Table 7's metric); Disc columns are discrimination
// (metrics.Reliability.Resolution) — the axis a constant predictor
// cannot fake. The fixed-rate JRS-count model hedges its way to a low
// RMS on hostile populations but cannot adapt to easy ones (loopy) and
// separates paths only as well as the raw count does; reading both
// columns together is the point of the study.
type RobustnessRow struct {
	Scenario      string
	PaCoRMS       float64
	JRSCountRMS   float64
	PerceptronRMS float64
	PaCoDisc      float64
	JRSCountDisc  float64
	CondMR        float64
}

// Robustness is the full study.
type Robustness struct {
	Rows []RobustnessRow
	// Means are the column means, in row order of the struct fields.
	MeanPaCo, MeanJRS, MeanPerceptron float64
}

// defaultRobustnessScenarios is every workload family at its default
// parameters plus two SPEC reference points bracketing the difficulty
// range, so the family rows read against known ground.
func defaultRobustnessScenarios() []scenario.Scenario {
	var out []scenario.Scenario
	for _, f := range scenario.Families() {
		out = append(out, scenario.Scenario{Family: f.Name})
	}
	out = append(out,
		scenario.Scenario{Base: "gzip"},  // easy SPEC reference
		scenario.Scenario{Base: "twolf"}, // hard SPEC reference
	)
	return out
}

// RunRobustness executes the study over the given scenarios (nil = every
// family at defaults plus the SPEC reference points). Results are
// deterministic at any cfg.Workers count: each (scenario, stratifier)
// cell is an independent campaign job and rows aggregate in input order.
func RunRobustness(cfg Config, scenarios []scenario.Scenario) (*Robustness, error) {
	if scenarios == nil {
		scenarios = defaultRobustnessScenarios()
	}
	const jrsThreshold = 3 // the paper's conventional-best count threshold

	specs := make([]*RobustnessRow, len(scenarios))
	// Two jobs per scenario: the JRS-MDC machine measuring PaCo and
	// JRS-count side by side, and the perceptron-stratified machine
	// measuring PaCo again.
	rels := make([]*metrics.Reliability, 3*len(scenarios))
	jobs := make([]campaign.Job, 0, 2*len(scenarios))
	for i, sc := range scenarios {
		i := i
		spec, err := sc.Compile()
		if err != nil {
			return nil, err
		}
		specs[i] = &RobustnessRow{Scenario: spec.Name}

		mdcJob := campaign.Job{
			ID:           "robust:" + spec.Name + "/mdc",
			Benchmark:    spec.Name,
			Spec:         spec,
			Instructions: cfg.Instructions,
			Warmup:       cfg.Warmup,
			Machine:      cfg.Machine,
			Setup: func() campaign.Hooks {
				paco := core.NewPaCo(core.PaCoConfig{RefreshPeriod: cfg.RefreshPeriod})
				jrs := newJRSCountProb(jrsThreshold)
				pr, jr := &metrics.Reliability{}, &metrics.Reliability{}
				rels[3*i], rels[3*i+1] = pr, jr
				return relHooks([]core.Estimator{paco, jrs},
					[]core.Probabilistic{paco, jrs}, []*metrics.Reliability{pr, jr})
			},
		}
		perceptronMachine := cfg.machine()
		perceptronMachine.PerceptronStratifier = true
		percJob := campaign.Job{
			ID:           "robust:" + spec.Name + "/perceptron",
			Benchmark:    spec.Name,
			Spec:         spec,
			Instructions: cfg.Instructions,
			Warmup:       cfg.Warmup,
			Machine:      &perceptronMachine,
			Setup: func() campaign.Hooks {
				paco := core.NewPaCo(core.PaCoConfig{RefreshPeriod: cfg.RefreshPeriod})
				rel := &metrics.Reliability{}
				rels[3*i+2] = rel
				return relHooks([]core.Estimator{paco}, []core.Probabilistic{paco}, []*metrics.Reliability{rel})
			},
		}
		jobs = append(jobs, mdcJob, percJob)
	}
	results, err := runJobs(cfg, jobs)
	if err != nil {
		return nil, err
	}
	out := &Robustness{}
	for i := range scenarios {
		row := specs[i]
		row.PaCoRMS = rels[3*i].RMSError()
		row.JRSCountRMS = rels[3*i+1].RMSError()
		row.PerceptronRMS = rels[3*i+2].RMSError()
		row.PaCoDisc = rels[3*i].Resolution()
		row.JRSCountDisc = rels[3*i+1].Resolution()
		row.CondMR = results[2*i].Stats.CondMispredictRate()
		out.Rows = append(out.Rows, *row)
		out.MeanPaCo += row.PaCoRMS
		out.MeanJRS += row.JRSCountRMS
		out.MeanPerceptron += row.PerceptronRMS
	}
	n := float64(len(out.Rows))
	out.MeanPaCo /= n
	out.MeanJRS /= n
	out.MeanPerceptron /= n
	return out, nil
}

// Table renders the study.
func (r *Robustness) Table() *metrics.Table {
	t := metrics.NewTable("Scenario", "PaCo RMS", "JRS-count RMS", "perceptron RMS",
		"PaCo disc", "JRS-count disc", "Cond. Br. Mispredict %")
	for _, row := range r.Rows {
		t.Row(row.Scenario, row.PaCoRMS, row.JRSCountRMS, row.PerceptronRMS,
			fmt.Sprintf("%.4f", row.PaCoDisc), fmt.Sprintf("%.4f", row.JRSCountDisc),
			fmt.Sprintf("%.2f", row.CondMR))
	}
	t.Row("mean", r.MeanPaCo, r.MeanJRS, r.MeanPerceptron, "", "", "")
	return t
}

// RobustnessReport writes the full study.
func RobustnessReport(cfg Config, w io.Writer) error {
	r, err := RunRobustness(cfg, nil)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Robustness: estimator accuracy across declarative workload families")
	fmt.Fprintln(w, "(table7-style RMS plus discrimination; JRS-count = threshold-and-count's")
	fmt.Fprintln(w, " fixed design-time rate q^count, perceptron = PaCo re-stratified by")
	fmt.Fprintln(w, " perceptron confidence; adversarial-mdc is crafted so bucket rates straddle")
	fmt.Fprintln(w, " the count threshold. Read RMS and disc together: a hedging model keeps RMS")
	fmt.Fprintln(w, " low by never committing, but cannot adapt and discriminates less)")
	fmt.Fprintln(w)
	_, err = io.WriteString(w, r.Table().String())
	return err
}

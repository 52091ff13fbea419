package experiments

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"

	"paco/internal/campaign"
	"paco/internal/scenario"
	"paco/internal/smt"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"ablate-perceptron", "ablate-refresh", "ablate-stratifier",
		"ablate-throttle", "fig10", "fig12", "fig2", "fig3a", "fig3b", "fig8",
		"fig9", "robustness", "table7", "tableA1"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("experiments = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("experiments = %v, want %v", got, want)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if err := Run("nope", Quick(), &bytes.Buffer{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFigure2(t *testing.T) {
	cfg := Quick()
	f, err := RunFigure2(cfg, []string{"gzip", "twolf"})
	if err != nil {
		t.Fatal(err)
	}
	// Bucket 0 must mispredict more than bucket 15 on both.
	for _, b := range f.Benchmarks {
		if f.Samples[b][0] == 0 || f.Samples[b][15] == 0 {
			t.Fatalf("%s: empty extreme buckets", b)
		}
		if f.Rate[b][0] <= f.Rate[b][15] {
			t.Fatalf("%s: bucket rates not declining: %.1f vs %.1f", b, f.Rate[b][0], f.Rate[b][15])
		}
	}
	// twolf (hard) should have a higher bucket-0 rate than gzip (easy).
	if f.Rate["twolf"][0] <= f.Rate["gzip"][0] {
		t.Fatalf("twolf bucket0 %.1f <= gzip bucket0 %.1f", f.Rate["twolf"][0], f.Rate["gzip"][0])
	}
	if !strings.Contains(f.Table().String(), "MDC") {
		t.Fatal("table rendering")
	}
}

func TestFigure3a(t *testing.T) {
	cfg := Quick()
	rows, err := RunFigure3a(cfg, DefaultCounterProbe(), []string{"gzip", "twolf"})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Figure3Row{}
	for _, r := range rows {
		if r.Instances == 0 {
			t.Fatalf("%s: no instances at counter==5", r.Label)
		}
		byName[r.Label] = r
	}
	// The paper's point: the same counter value means a much higher
	// goodpath probability for an easy benchmark than a hard one.
	if byName["gzip"].Goodpath <= byName["twolf"].Goodpath {
		t.Fatalf("gzip %.1f%% <= twolf %.1f%% at counter 5",
			byName["gzip"].Goodpath, byName["twolf"].Goodpath)
	}
}

func TestFigure3b(t *testing.T) {
	cfg := Quick()
	cfg.Instructions = 1_200_000 // must cover both mcf phases (500k each)
	rows, err := RunFigure3b(cfg, DefaultCounterProbe())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	var mcf1, mcf2 Figure3Row
	for _, r := range rows {
		switch r.Label {
		case "mcf_phase1":
			mcf1 = r
		case "mcf_phase2":
			mcf2 = r
		}
	}
	if mcf1.Instances == 0 || mcf2.Instances == 0 {
		t.Fatal("phase sampling produced no instances")
	}
	// Phase 2 is tuned much harder than phase 1: goodpath probability at
	// the same counter value must differ between phases.
	if diff := mcf1.Goodpath - mcf2.Goodpath; diff < 1 {
		t.Fatalf("phases indistinguishable: %.1f vs %.1f", mcf1.Goodpath, mcf2.Goodpath)
	}
}

func TestTable7(t *testing.T) {
	cfg := Quick()
	t7, err := RunTable7(cfg, []string{"gzip", "vortex"})
	if err != nil {
		t.Fatal(err)
	}
	if len(t7.Rows) != 2 {
		t.Fatal("row count")
	}
	for _, r := range t7.Rows {
		if r.RMS <= 0 || r.RMS > 0.5 {
			t.Fatalf("%s RMS %.4f implausible", r.Benchmark, r.RMS)
		}
		if r.Reliability.Instances() == 0 {
			t.Fatalf("%s: no instances", r.Benchmark)
		}
	}
	if t7.Cumulative.Instances() == 0 {
		t.Fatal("cumulative diagram empty")
	}
	if _, ok := t7.Row("gzip"); !ok {
		t.Fatal("row lookup")
	}
	if _, ok := t7.Row("nope"); ok {
		t.Fatal("phantom row")
	}
}

func TestFigure10(t *testing.T) {
	cfg := Quick()
	f, err := RunFigure10(cfg, []string{"gzip", "twolf"})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series["PaCo"]) != len(cfg.ProbTargets) {
		t.Fatalf("PaCo series has %d points", len(f.Series["PaCo"]))
	}
	for _, thr := range cfg.GateThresholds {
		name := "JRS-thr" + strconv.Itoa(int(thr))
		if len(f.Series[name]) != len(cfg.GateCounts) {
			t.Fatalf("%s series has %d points", name, len(f.Series[name]))
		}
		// More aggressive gating (later points) must not reduce badpath
		// executed less than doing nothing at all, and must gate cycles.
		last := f.Series[name][len(f.Series[name])-1]
		if last.GatedCycleFrac == 0 {
			t.Fatalf("%s most aggressive point never gated", name)
		}
	}
	if !strings.Contains(f.Table().String(), "PaCo") {
		t.Fatal("table rendering")
	}
	if _, ok := f.Best("PaCo", 100); !ok {
		t.Fatal("Best found nothing under a permissive loss bound")
	}
}

func TestFigure12(t *testing.T) {
	cfg := Quick()
	pairs := []smt.Pair{{A: "gzip", B: "twolf"}, {A: "vortex", B: "bzip2"}}
	f, err := RunFigure12(cfg, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Policies) != 6 {
		t.Fatalf("policies = %v", f.Policies)
	}
	for _, p := range pairs {
		for _, pol := range f.Policies {
			h := f.HMWIPC[p.String()][pol]
			if h <= 0 || h > 1.5 {
				t.Fatalf("%s/%s HMWIPC %.3f implausible", p, pol, h)
			}
		}
	}
	if f.Mean["PaCo"] <= 0 {
		t.Fatal("mean missing")
	}
	if wins := f.PaCoWins(); wins < 0 || wins > len(pairs) {
		t.Fatalf("wins = %d", wins)
	}
}

func TestTableA1(t *testing.T) {
	cfg := Quick()
	a, err := RunTableA1(cfg, []string{"gzip"})
	if err != nil {
		t.Fatal(err)
	}
	r := a.Rows[0]
	if r.DynamicMRT <= 0 || r.StaticMRT <= 0 || r.PerBranchMRT <= 0 {
		t.Fatalf("zero RMS in %+v", r)
	}
	if !strings.Contains(a.Table().String(), "Static MRT") {
		t.Fatal("table rendering")
	}
}

func TestAblations(t *testing.T) {
	cfg := Quick()
	tbl, err := AblateRefresh(cfg, []uint64{20_000, 80_000}, []string{"gzip"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "20000") {
		t.Fatal("refresh ablation rendering")
	}
	tbl, err = AblateStratifier(cfg, []string{"gzip"})
	if err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(strings.TrimSpace(tbl.String()), "\n")) < 3 {
		t.Fatal("stratifier ablation rendering")
	}
	tbl, err = AblateThrottle(cfg, []string{"gzip"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "throttle") {
		t.Fatal("throttle ablation rendering")
	}
}

func TestRobustness(t *testing.T) {
	cfg := Quick()
	scs := []scenario.Scenario{
		{Family: "adversarial-mdc"},
		{Family: "loopy"},
	}
	r, err := RunRobustness(cfg, scs)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.PaCoRMS <= 0 || row.PaCoRMS > 0.5 {
			t.Fatalf("%s: PaCo RMS %.4f implausible", row.Scenario, row.PaCoRMS)
		}
		if row.JRSCountRMS <= 0 || row.PerceptronRMS <= 0 {
			t.Fatalf("%s: zero column in %+v", row.Scenario, row)
		}
	}
	adv, _ := r.Row("adversarial-mdc")
	loopy, _ := r.Row("loopy")
	// The families bracket difficulty: the adversarial population must
	// mispredict far more than the floor case.
	if adv.CondMR <= loopy.CondMR {
		t.Fatalf("adversarial-mdc MR %.2f <= loopy MR %.2f", adv.CondMR, loopy.CondMR)
	}
	// On the predictable floor case the fixed design-time rate is
	// unfixably pessimistic; PaCo's trained per-bucket rates adapt and
	// must win on calibration.
	if loopy.PaCoRMS >= loopy.JRSCountRMS {
		t.Fatalf("loopy: PaCo RMS %.4f >= JRS-count RMS %.4f — trained rates buy nothing on the floor case",
			loopy.PaCoRMS, loopy.JRSCountRMS)
	}
	// Discrimination must be measured (nonzero) for both models on the
	// adversarial population.
	if adv.PaCoDisc <= 0 || adv.JRSCountDisc <= 0 {
		t.Fatalf("adversarial-mdc: zero discrimination: %+v", adv)
	}
	if !strings.Contains(r.Table().String(), "adversarial-mdc") {
		t.Fatal("table rendering")
	}
}

// TestRobustnessWorkerCountDeterminism is the new experiment's
// acceptance criterion: the report is byte-identical at any worker
// count.
func TestRobustnessWorkerCountDeterminism(t *testing.T) {
	cfg := Quick()
	cfg.Instructions = 40_000
	cfg.Warmup = 15_000
	render := func(workers int) string {
		c := cfg
		c.Workers = workers
		var buf bytes.Buffer
		if err := RobustnessReport(c, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Fatalf("robustness reports differ across worker counts:\n-j1:\n%s\n-j8:\n%s", serial, parallel)
	}
}

// TestWorkerCountDeterminism is the campaign rewiring's acceptance
// criterion: for a fixed configuration, reports are byte-identical
// whether the jobs run serially or across 8 workers.
func TestWorkerCountDeterminism(t *testing.T) {
	cfg := Quick()
	cfg.Instructions = 40_000
	cfg.Warmup = 15_000
	cfg.GatingInstructions = 25_000
	cfg.GatingWarmup = 8_000
	cfg.GateThresholds = []uint32{3}
	cfg.GateCounts = []int{2, 6}
	cfg.ProbTargets = []float64{0.2, 0.5}

	render := func(workers int) string {
		c := cfg
		c.Workers = workers
		var buf bytes.Buffer
		t7, err := RunTable7(c, []string{"gzip", "twolf", "bzip2"})
		if err != nil {
			t.Fatal(err)
		}
		buf.WriteString(t7.Table().String())
		f10, err := RunFigure10(c, []string{"gzip", "twolf"})
		if err != nil {
			t.Fatal(err)
		}
		buf.WriteString(f10.Table().String())
		return buf.String()
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Fatalf("reports differ across worker counts:\n-j1:\n%s\n-j8:\n%s", serial, parallel)
	}
}

// TestReportsRender drives every registered report at tiny scale through
// the io.Writer interface.
func TestReportsRender(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every experiment")
	}
	cfg := Quick()
	cfg.Instructions = 60_000
	cfg.Warmup = 25_000
	cfg.GatingInstructions = 30_000
	cfg.GatingWarmup = 10_000
	cfg.SMTWarmupCycles = 5_000
	cfg.SMTMeasureCycles = 15_000
	cfg.GateThresholds = []uint32{3}
	cfg.GateCounts = []int{2}
	cfg.ProbTargets = []float64{0.2}
	for _, name := range Names() {
		if name == "fig3b" {
			continue // needs full phase coverage; tested directly above
		}
		var buf bytes.Buffer
		if err := Run(name, cfg, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", name)
		}
	}
}

// TestBatchedExperimentsByteIdentical renders every paper experiment
// through the default runner, which batches at campaign.DefaultBatchK,
// and through an injected unbatched Runner{BatchK: 1}, and requires the
// reports to be byte-identical. This is the experiment-level face of
// the batching guarantee: batch width, like worker count, must never
// change result bytes — including for Attached cells (fig3b) and Exec
// cells (fig12). fig2 and robustness run at full Quick() windows; the
// other experiments run shorter windows to keep the race run short,
// with the Quick() sweep axes, and so the cells that share a stream,
// kept.
func TestBatchedExperimentsByteIdentical(t *testing.T) {
	fullWindows := map[string]bool{"fig2": true, "robustness": true}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			cfg := Quick()
			cfg.Workers = 2
			if !fullWindows[name] {
				cfg.Instructions = 60_000
				cfg.Warmup = 25_000
				cfg.GatingInstructions = 30_000
				cfg.GatingWarmup = 10_000
				cfg.SMTWarmupCycles = 5_000
				cfg.SMTMeasureCycles = 15_000
			}
			var batched bytes.Buffer
			if err := Run(name, cfg, &batched); err != nil {
				t.Fatalf("batched %s: %v", name, err)
			}

			ucfg := cfg
			ucfg.Execute = func(ctx context.Context, workers int, jobs []campaign.Job) ([]campaign.Result, error) {
				r := campaign.Runner{Workers: workers, BatchK: 1}
				return r.Run(ctx, jobs)
			}
			var plain bytes.Buffer
			if err := Run(name, ucfg, &plain); err != nil {
				t.Fatalf("unbatched %s: %v", name, err)
			}
			if !bytes.Equal(plain.Bytes(), batched.Bytes()) {
				t.Fatalf("%s report differs between unbatched and batched execution\nunbatched:\n%s\nbatched:\n%s",
					name, plain.String(), batched.String())
			}
		})
	}
}

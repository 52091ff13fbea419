package experiments

import (
	"context"

	"paco/internal/campaign"
	"paco/internal/core"
	"paco/internal/metrics"
	"paco/internal/workload"
)

// Every experiment submits its per-benchmark measurement runs to the
// campaign engine (internal/campaign) instead of looping serially: the
// experiment builds one campaign.Job per (benchmark, configuration)
// cell, runJobs shards them across cfg.Workers goroutines, and the
// experiment aggregates the returned results in job order. Each
// simulation is deterministic given its spec seed and jobs share no
// state, so reports are byte-identical at any worker count.

// benchJob builds the standard single-thread measurement job: warmup
// (statistics discarded, predictors and caches trained), then the
// measured window with the setup's estimators, gate, and probes
// installed. setup may be nil.
func benchJob(cfg Config, name string, instructions, warmup uint64, setup campaign.Setup) campaign.Job {
	return campaign.Job{
		ID:           name,
		Benchmark:    name,
		Instructions: instructions,
		Warmup:       warmup,
		Machine:      cfg.Machine,
		Setup:        setup,
	}
}

// runJobs executes a campaign on cfg's worker pool, batching cells
// that share an instruction stream at campaign.DefaultBatchK — or
// hands it to cfg.Execute when an alternative executor (e.g. a
// servertest worker federation) is injected. Either way the results
// come back one per job, in job order, so reports cannot tell
// executors apart.
func runJobs(cfg Config, jobs []campaign.Job) ([]campaign.Result, error) {
	if cfg.Execute != nil {
		return cfg.Execute(context.Background(), cfg.Workers, jobs)
	}
	r := campaign.Runner{Workers: cfg.Workers, BatchK: campaign.DefaultBatchK}
	return r.Run(context.Background(), jobs)
}

// relHooks builds the accuracy-measurement hooks shared by Table 7, the
// Appendix A study, and the ablations: attach the estimators and, at
// every probe instance, record each probabilistic estimator's goodpath
// probability against the oracle in its paired reliability diagram.
// probs[i] pairs with rels[i]; probs must all appear in estimators.
func relHooks(estimators []core.Estimator, probs []core.Probabilistic, rels []*metrics.Reliability) campaign.Hooks {
	return campaign.Hooks{
		Estimators: estimators,
		Probe: func(_ int, onGood bool) {
			for i, e := range probs {
				rels[i].Add(e.GoodpathProb(), onGood)
			}
		},
	}
}

// benchmarkNames aliases the paper's benchmark list.
var benchmarkNames = workload.BenchmarkNames

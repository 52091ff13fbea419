package main

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"paco/internal/campaign"
	"paco/internal/experiments"
	"paco/internal/obs"
)

// reproOrder is the experiment sequence cmd/paco-repro runs.
var reproOrder = []string{"fig2", "fig3a", "fig3b", "table7", "fig8", "fig9", "fig10", "fig12", "tableA1"}

const reproWorkers = 2

func reproConfig() experiments.Config {
	cfg := experiments.Quick()
	cfg.Workers = reproWorkers
	return cfg
}

// readyRepro is everything paco-repro does before its first simulation.
func readyRepro() (func(), error) {
	for _, name := range reproOrder {
		if !experiments.Has(name) {
			return nil, fmt.Errorf("experiment %q is not registered", name)
		}
	}
	return func() {}, nil
}

// reproHooks observe the campaigns experiments submit in a traced pass:
// per-cell simulate time, and the campaign.Run wall time they sit in.
type reproHooks struct {
	simDuration *obs.Histogram
	runWall     samples // seconds per campaign.Run
	cycles      atomic.Uint64
}

// runRepro regenerates the full quick evaluation round after round: as
// many rounds as fit the budget, rounded to the nearest whole round and
// at least one. It seeds nothing: the paper's evaluation is fixed. Every
// round's report must be byte-identical to the first.
func runRepro(ctx context.Context, p *pass) error {
	cfg := reproConfig()
	var cells atomic.Int64
	var hooks *reproHooks
	// The Execute hook wraps the exact call experiments make without one
	// (campaign.Run is Runner{Workers: w}.Run); it only counts cells, and
	// in a traced pass times them.
	cfg.Execute = func(ctx context.Context, workers int, jobs []campaign.Job) ([]campaign.Result, error) {
		cells.Add(int64(len(jobs)))
		if hooks == nil {
			return campaign.Run(ctx, workers, jobs)
		}
		start := time.Now()
		r := campaign.Runner{Workers: workers, SimDuration: hooks.simDuration}
		res, err := r.Run(ctx, jobs)
		hooks.runWall.add(time.Since(start).Seconds())
		for i := range res {
			hooks.cycles.Add(res[i].Cycles)
		}
		return res, err
	}
	if p.tr != nil {
		reg := obs.NewRegistry()
		hooks = &reproHooks{simDuration: reg.Histogram("bench_repro_cell_seconds", "cell seconds",
			obs.ExpBuckets(1e-6, 1.05, 400))}
	}
	var first []byte
	p.begin()
	for round := 0; round == 0 || time.Since(p.start)+time.Duration(p.rounds.summary()*float64(time.Second))/2 < p.budget; round++ {
		cellsBefore := cells.Load()
		roundStart := time.Now()
		root := p.tr.begin(0, 0, "repro.round")
		var report bytes.Buffer
		for _, name := range reproOrder {
			p.attempt(1)
			sp := p.tr.begin(root.trace(), root.id(), "experiments."+name)
			opStart := time.Now()
			fmt.Fprintf(&report, "==================== %s ====================\n", name)
			err := experiments.Run(name, cfg, &report)
			report.WriteString("\n")
			sp.end()
			if err != nil {
				p.fail("experiment %s: %v", name, err)
				continue
			}
			p.ops.addSince(name, opStart, time.Millisecond)
		}
		root.end()
		p.rounds.addSince("evaluation", roundStart, time.Second)
		p.completed(float64(cells.Load() - cellsBefore))
		if first == nil {
			first = report.Bytes()
		} else if !bytes.Equal(first, report.Bytes()) {
			p.problem("round %d report differs from round 0", round)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	p.finish()
	p.detail["wall_s"] = p.rounds.summary()
	p.detail["cells"] = p.work()
	p.report = first

	if p.tr != nil {
		for _, name := range reproOrder {
			p.setLayer("experiments."+name+"_s", p.ops.median(name)/1000)
		}
		rounds := float64(len(p.rounds.all()))
		p.setLayer("campaign.cells", p.work()/rounds)
		p.setLayer("campaign.sim_cycles", float64(hooks.cycles.Load())/rounds)
		busy := hooks.simDuration.Sum()
		p.setLayer("campaign.idle_share", 1-busy/(reproWorkers*sum(hooks.runWall.values())))
	}
	return nil
}

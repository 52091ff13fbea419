package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"paco/internal/perf"
	"paco/internal/session"
	"paco/internal/trace"
)

// perLayer lists the metrics a traced run prints; BENCHMARK.json names
// the same set. README.md maps each to its layer and to the end-to-end
// metric it should move.
var perLayer = []struct{ name, unit string }{
	{"experiments.fig2_s", "s"},
	{"experiments.fig3a_s", "s"},
	{"experiments.fig3b_s", "s"},
	{"experiments.table7_s", "s"},
	{"experiments.fig8_s", "s"},
	{"experiments.fig9_s", "s"},
	{"experiments.fig10_s", "s"},
	{"experiments.fig12_s", "s"},
	{"experiments.tableA1_s", "s"},
	{"campaign.cells", "count"},
	{"campaign.sim_cycles", "count"},
	{"campaign.idle_share", "share"},
	{"campaign.cell_s_p50", "s"},
	{"campaign.queue_wait_s_p50", "s"},
	{"campaign.batch_size_mean", "cells"},
	{"campaign.singleton_share", "share"},
	{"cpu.core_kcycles_per_s", "kcycles/s"},
	{"cpu.allocs_per_cycle", "allocs"},
	{"cpu.stage.estimators", "share"},
	{"cpu.stage.complete", "share"},
	{"cpu.stage.arrive", "share"},
	{"cpu.stage.issue", "share"},
	{"cpu.stage.retire", "share"},
	{"cpu.stage.fetch", "share"},
	{"cpu.batch1_kcycles_per_s", "kcycles/s"},
	{"cpu.batch8_kcycles_per_s", "kcycles/s"},
	{"cpu.batch1_over_core", "ratio"},
	{"server.admit_ms_p50", "ms"},
	{"server.normalize_us_p50", "us"},
	{"server.cache_hits", "count"},
	{"server.cache_misses", "count"},
	{"server.simulations", "count"},
	{"server.lease_polls", "count"},
	{"server.lease_grant_ratio", "ratio"},
	{"server.lease_rtt_ms_p50", "ms"},
	{"server.result_post_ms_p50", "ms"},
	{"server.shard_s_p50", "s"},
	{"server.fed_overhead_share", "share"},
	{"trace.decode_mevents_per_s", "Mevents/s"},
	{"session.ndjson_mevents_per_s", "Mevents/s"},
	{"session.apply_mevents_per_s", "Mevents/s"},
	{"session.table_events_per_s", "events/s"},
	{"session.close_ms_p50", "ms"},
	{"session.scores_ms_p50", "ms"},
	{"session.retry_share", "share"},
	{"server.http_over_table", "ratio"},
	{"session.routed_close_ms_p50", "ms"},
	{"session.routed_retry_share", "share"},
	{"server.proxy_hop_ms_p50", "ms"},
	{"session.journal_bytes_per_event", "B/event"},
	{"bench.trace_overhead_share", "share"},
}

// miniBudget is how long a traced run spends on each workload other than
// the one named, to measure the layers only that workload exercises.
// repro always completes one full evaluation.
var miniBudget = map[string]time.Duration{
	"repro":           time.Millisecond,
	"sweep":           2 * time.Second,
	"sessions":        1500 * time.Millisecond,
	"sessions_routed": 1500 * time.Millisecond,
}

// tracedRun is --trace 1. It runs the named workload untraced and then
// traced for half the budget each (their throughput difference is the
// tracing overhead), then a short traced pass of every other workload
// and the in-process layer probes, so every per-layer metric is
// measured in every traced run. Spans are written out at the end.
func tracedRun(ctx context.Context, name string, seed int64, budget time.Duration, stdout io.Writer) (*pass, result, error) {
	w := workloads[name]
	plain := newPass(seed, budget/2, nil)
	if err := w.run(ctx, plain); err != nil {
		return nil, result{}, fmt.Errorf("untraced pass: %w", err)
	}
	tr := newTracer()
	p := newPass(seed, budget/2, tr)
	if err := w.run(ctx, p); err != nil {
		return nil, result{}, fmt.Errorf("traced pass: %w", err)
	}
	p.absorb(plain)
	p.layer["bench.trace_overhead_share"] = 1 - p.rate()/plain.rate()
	if name == "repro" && !bytes.Equal(p.report, plain.report) {
		p.problem("traced and untraced repro reports differ")
	}
	for _, other := range workloadNames() {
		if other == name {
			continue
		}
		mini := newPass(seed, miniBudget[other], tr)
		if err := workloads[other].run(ctx, mini); err != nil {
			return nil, result{}, fmt.Errorf("traced %s pass: %w", other, err)
		}
		p.absorb(mini)
		for k, v := range mini.layer {
			if _, ok := p.layer[k]; !ok {
				p.layer[k] = v
			}
		}
	}
	if err := probeLayers(seed, p); err != nil {
		return nil, result{}, err
	}
	p.layer["server.http_over_table"] = p.layer["session.http_events_per_s"] / p.layer["session.table_events_per_s"]

	if err := tr.write(traceFile(name, seed), stdout); err != nil {
		p.problem("writing spans: %v", err)
	}
	m := map[string]metric{}
	for _, l := range perLayer {
		v, ok := p.layer[l.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			p.problem("per-layer metric %s was not measured", l.name)
			v = math.NaN()
		}
		m[l.name] = metric{Value: v, Unit: l.unit}
	}
	res := result{
		Correct:   len(p.problems) == 0 && p.failed == 0,
		Attempted: max(p.attempted, 1),
		Failed:    p.failed,
		Metrics:   m,
	}
	if !res.Correct {
		// NaN does not encode as JSON; a run that failed its checks
		// reports the metrics it has.
		for k, v := range m {
			if math.IsNaN(v.Value) {
				delete(m, k)
			}
		}
	}
	return p, res, nil
}

// absorb adds another pass's operation counts and failed checks.
func (p *pass) absorb(o *pass) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted += o.attempted
	p.failed += o.failed
	p.retried += o.retried
	p.problems = append(p.problems, o.problems...)
}

// Kernel probe sizes: enough simulated cycles for a steady rate, few
// enough that the probe takes a few seconds.
var kernelOpts = perf.Options{WarmupCycles: 100_000, MeasureCycles: 300_000, StageCycles: 100_000}

const kernelBench = "gzip"

// probeLayers measures the in-process layers no HTTP workload isolates:
// the simulator kernel on its own, and the session decode, apply and
// table layers without HTTP, on the run's own session inputs.
func probeLayers(seed int64, p *pass) error {
	sp := p.tr.begin(0, 0, "perf.MeasureKernel")
	core, err := perf.MeasureKernel(kernelBench, kernelOpts)
	sp.end()
	if err != nil {
		return err
	}
	p.layer["cpu.core_kcycles_per_s"] = core.KCyclesPerSec
	p.layer["cpu.allocs_per_cycle"] = core.AllocsPerCycle
	for stage, share := range core.Stages {
		p.layer["cpu.stage."+stage] = share
	}
	for _, k := range []int{1, 8} {
		sp := p.tr.begin(0, 0, "perf.MeasureBatchKernel")
		b, err := perf.MeasureBatchKernel(kernelBench, k, kernelOpts)
		sp.end()
		if err != nil {
			return err
		}
		p.layer[fmt.Sprintf("cpu.batch%d_kcycles_per_s", k)] = b.KCyclesPerSec / float64(k)
	}
	p.layer["cpu.batch1_over_core"] = p.layer["cpu.batch1_kcycles_per_s"] / core.KCyclesPerSec

	inputs, err := sessionPlan(seed, 8)
	if err != nil {
		return err
	}
	evs := session.SyntheticEvents(seed, 200_000)
	var bin, nd bytes.Buffer
	tw, err := trace.NewWriter(&bin)
	if err != nil {
		return err
	}
	for _, ev := range evs {
		if err := tw.Write(ev); err != nil {
			return err
		}
		line, err := session.MarshalNDJSON(ev)
		if err != nil {
			return err
		}
		nd.Write(line)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	n := float64(len(evs))

	rate, err := repeatRate(p.tr, "trace.Decoder.Feed", n, func() error {
		var d trace.Decoder
		return d.Feed(bin.Bytes(), func(trace.Event) error { return nil })
	})
	if err != nil {
		return err
	}
	p.layer["trace.decode_mevents_per_s"] = rate / 1e6
	if rate, err = repeatRate(p.tr, "session.DecodeNDJSON", n, func() error {
		_, _, err := session.DecodeNDJSON(nd.Bytes())
		return err
	}); err != nil {
		return err
	}
	p.layer["session.ndjson_mevents_per_s"] = rate / 1e6
	full, err := session.ParseEstimators(estimatorsFull, 0, 0)
	if err != nil {
		return err
	}
	if rate, err = repeatRate(p.tr, "Session.ApplyAll", n, func() error {
		s, err := session.New(full)
		if err != nil {
			return err
		}
		return s.ApplyAll(evs)
	}); err != nil {
		return err
	}
	p.layer["session.apply_mevents_per_s"] = rate / 1e6

	rate, err = tableRate(p, inputs)
	p.layer["session.table_events_per_s"] = rate
	return err
}

// repeatRate calls fn until at least 300ms have passed and returns
// units per second.
func repeatRate(tr *tracer, name string, units float64, fn func() error) (float64, error) {
	start := time.Now()
	reps := 0
	for reps == 0 || time.Since(start) < 300*time.Millisecond {
		sp := tr.begin(0, 0, name)
		err := fn()
		sp.end()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		reps++
	}
	return units * float64(reps) / time.Since(start).Seconds(), nil
}

// tableRate streams the session inputs through an in-process
// session.Table, with the chunking the HTTP workloads use, and checks
// each final against offline replay.
func tableRate(p *pass, inputs []sessionInput) (float64, error) {
	t := session.NewTable(session.TableConfig{})
	defer t.Shutdown()
	var events float64
	start := time.Now()
	for _, in := range inputs {
		root := p.tr.begin(0, 0, "table.session")
		id, _, _, err := t.Open(in.Spec, "")
		if err != nil {
			return 0, err
		}
		format := session.FormatNDJSON
		if in.Binary {
			format = session.FormatBinary
		}
		for off := 0; off < len(in.Payload); {
			chunk := in.Payload[off:min(off+in.Chunk, len(in.Payload))]
			off += len(chunk)
			sp := p.tr.begin(root.trace(), root.id(), "Table.Ingest")
			_, _, err := t.Ingest(id, format, chunk)
			sp.end()
			if err != nil {
				return 0, fmt.Errorf("table ingest: %w", err)
			}
		}
		sp := p.tr.begin(root.trace(), root.id(), "Table.Close")
		final, err := t.Close(id, session.CloseClient)
		sp.end()
		root.end()
		if err != nil {
			return 0, err
		}
		got, err := json.MarshalIndent(final, "", "  ")
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(append(got, '\n'), in.Want) {
			p.problem("table final differs from offline replay")
		}
		events += float64(in.Events)
	}
	return events / time.Since(start).Seconds(), nil
}

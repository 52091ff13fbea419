package server

import (
	"net/http"
	"sort"
	"strconv"
	"time"

	"paco/internal/campaign"
	"paco/internal/obs"
	"paco/internal/obs/tsdb"
)

// Campaign report: GET /v1/campaigns/{id}/report renders a finished
// job's campaign as an analytics document in two layers.
//
// The default body is the deterministic core — schema tag, content
// address, grid spec, summary, and per-benchmark rollups computed by
// folding the result slice in global cell order. Results are
// byte-identical for a given grid no matter how the campaign executed
// (local -j N, federated across any worker count, any batch width), so
// the core is too: CI diffs reports across topologies to prove the
// distribution layer never touches simulated values. Anything tied to
// one particular execution — job ID, trace, timestamps, worker names —
// is deliberately excluded from the core.
//
// `?exec=1` appends the execution layer: wall/sim/queue-wait seconds,
// per-worker timelines, straggler and imbalance indices, and the
// throughput timeline sampled by the tsdb. That layer is reconstructed
// from flight-recorder spans and is as complete as the span ring —
// nonzero recorder drops mean partial timelines, reported as-is.

// ReportSchema versions the deterministic report body.
const ReportSchema = "paco-report/v1"

// CampaignReport is the body of GET /v1/campaigns/{id}/report.
type CampaignReport struct {
	Schema string `json:"schema"`
	// Key is the campaign's content address — the identity that is
	// stable across servers and topologies (job IDs are not).
	Key    string `json:"key"`
	Status string `json:"status"`
	Cells  int    `json:"cells"`

	Spec    campaign.Grid     `json:"spec"`
	Summary *campaign.Summary `json:"summary,omitempty"`

	// Benchmarks rolls the cells up by benchmark, sorted by name.
	Benchmarks []BenchmarkRollup `json:"benchmarks"`

	// Exec is the execution layer, present only with ?exec=1.
	Exec *ExecutionReport `json:"exec,omitempty"`
}

// BenchmarkRollup aggregates one benchmark's cells. Folds run in
// global cell-index order so float accumulation is deterministic.
type BenchmarkRollup struct {
	Benchmark string `json:"benchmark"`
	Cells     int    `json:"cells"`
	Completed int    `json:"completed"`
	Failed    int    `json:"failed"`
	Skipped   int    `json:"skipped"`

	Cycles  uint64  `json:"cycles"`
	MeanIPC float64 `json:"mean_ipc"`
	MinIPC  float64 `json:"min_ipc"`
	MaxIPC  float64 `json:"max_ipc"`
}

// ExecutionReport is the nondeterministic execution layer of a
// campaign report, reconstructed from flight-recorder spans and the
// time-series store.
type ExecutionReport struct {
	JobID string `json:"job_id"`
	Trace string `json:"trace,omitempty"`
	// Mode is "local" or "federated", from the job span.
	Mode string `json:"mode,omitempty"`

	// WallSeconds is the job span's duration; SimSeconds sums cell
	// span durations (aggregate compute time across all workers);
	// QueueWaitSeconds sums, per cell, the gap between its executing
	// context starting (shard execution or the job itself) and the
	// cell actually simulating. Parallelism is roughly
	// SimSeconds / WallSeconds.
	WallSeconds      float64 `json:"wall_seconds"`
	SimSeconds       float64 `json:"sim_seconds"`
	QueueWaitSeconds float64 `json:"queue_wait_seconds"`

	// Span coverage: how much of the execution the flight recorder
	// still held when the report was built. CellsObserved below
	// Cells in the core report means dropped spans truncated the
	// timeline (raise Config.FlightSpans).
	CellsObserved int     `json:"cells_observed"`
	Batches       int     `json:"batches,omitempty"`
	MeanBatchKs   float64 `json:"mean_batch_cells,omitempty"`
	SpansDropped  uint64  `json:"spans_dropped,omitempty"`

	// Workers, sorted by name. Local campaigns report one synthetic
	// "local" worker so threshold assertions hold in both modes.
	Workers []WorkerReport `json:"workers"`

	// StragglerIndex is max worker busy-seconds over mean worker
	// busy-seconds (1 = perfectly balanced; 2 = slowest worker did
	// twice the mean). ImbalanceRatio is max cells over min cells
	// across workers.
	StragglerIndex float64 `json:"straggler_index"`
	ImbalanceRatio float64 `json:"imbalance_ratio"`

	// Shards summarizes the lease protocol as the coordinator saw it.
	Shards *ShardActivity `json:"shards,omitempty"`

	// Throughput is the tsdb's paco_sim_kcycles_per_sec_last samples
	// over the job's wall window (empty when sampling is disabled or
	// the job outran the sampling interval).
	Throughput []tsdb.Point `json:"throughput,omitempty"`
}

// WorkerReport is one worker's slice of a campaign's execution.
type WorkerReport struct {
	Worker string `json:"worker"`
	// Shards counts executions attributed to the worker; Cells the
	// cells inside them.
	Shards int `json:"shards"`
	Cells  int `json:"cells"`
	// BusySeconds sums the worker's execution span durations;
	// KCyclesPerSec divides the simulated cycles of its cell ranges
	// by that busy time.
	BusySeconds   float64 `json:"busy_seconds"`
	Cycles        uint64  `json:"cycles"`
	KCyclesPerSec float64 `json:"kcycles_per_sec"`
}

// ShardActivity summarizes the lease protocol for one campaign.
type ShardActivity struct {
	Leases  int `json:"leases"`
	Retries int `json:"retries"`
	Cached  int `json:"cached"`
}

// handleCampaignReport is GET /v1/campaigns/{id}/report.
func (s *Server) handleCampaignReport(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		errorJSON(w, http.StatusNotFound, "unknown campaign %q", r.PathValue("id"))
		return
	}
	results, done, err := j.resultsIfDone()
	if !done {
		errorJSON(w, http.StatusConflict,
			"campaign %s has not completed (status %q)", j.id, j.status(false).Status)
		return
	}
	if err != nil {
		errorJSON(w, http.StatusInternalServerError, "campaign %s: %v", j.id, err)
		return
	}
	st := j.status(false)
	if st.Error != "" {
		errorJSON(w, http.StatusInternalServerError, "campaign %s: %s", j.id, st.Error)
		return
	}
	report := CampaignReport{
		Schema:     ReportSchema,
		Key:        j.key,
		Status:     stateDone,
		Cells:      j.cells,
		Spec:       st.Spec,
		Summary:    st.Summary,
		Benchmarks: rollupBenchmarks(results),
	}
	if r.URL.Query().Get("exec") == "1" {
		report.Exec = s.executionReport(j, results)
	}
	writeJSON(w, http.StatusOK, report)
}

// rollupBenchmarks folds results (already in global index order) into
// per-benchmark aggregates, sorted by benchmark name.
func rollupBenchmarks(results []campaign.Result) []BenchmarkRollup {
	byName := map[string]*BenchmarkRollup{}
	var names []string
	for i := range results {
		res := &results[i]
		roll := byName[res.Benchmark]
		if roll == nil {
			roll = &BenchmarkRollup{Benchmark: res.Benchmark}
			byName[res.Benchmark] = roll
			names = append(names, res.Benchmark)
		}
		roll.Cells++
		switch {
		case res.Skipped:
			roll.Skipped++
		case res.Failed():
			roll.Failed++
		default:
			roll.Completed++
			roll.Cycles += res.Cycles
			roll.MeanIPC += res.IPC
			if roll.Completed == 1 || res.IPC < roll.MinIPC {
				roll.MinIPC = res.IPC
			}
			if roll.Completed == 1 || res.IPC > roll.MaxIPC {
				roll.MaxIPC = res.IPC
			}
		}
	}
	sort.Strings(names)
	out := make([]BenchmarkRollup, 0, len(names))
	for _, name := range names {
		roll := byName[name]
		if roll.Completed > 0 {
			roll.MeanIPC /= float64(roll.Completed)
		}
		out = append(out, *roll)
	}
	return out
}

// executionReport reconstructs the execution layer from the flight
// recorder and tsdb. Best-effort by design: a partial span history
// yields a partial timeline, never an error.
func (s *Server) executionReport(j *job, results []campaign.Result) *ExecutionReport {
	ex := &ExecutionReport{
		JobID:   j.id,
		Trace:   j.trace,
		Workers: []WorkerReport{},
	}
	spans := s.obs.rec.Snapshot(obs.Filter{Trace: j.trace})
	byID := make(map[uint64]*obs.SpanRecord, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}

	var jobSpan *obs.SpanRecord
	var executeSpans, leaseSpans []*obs.SpanRecord
	var shards ShardActivity
	var batchCells int
	for i := range spans {
		sp := &spans[i]
		switch sp.Kind {
		case "job":
			if sp.Name == j.id {
				jobSpan = sp
				ex.Mode = sp.Attr("mode")
				ex.WallSeconds = sp.DurationMS / 1e3
			}
		case "cell":
			ex.CellsObserved++
			ex.SimSeconds += sp.DurationMS / 1e3
			if root := executionRoot(sp, byID); root != nil {
				if wait := sp.Start.Sub(root.Start).Seconds(); wait > 0 {
					ex.QueueWaitSeconds += wait
				}
			}
		case "batch":
			ex.Batches++
			batchCells += batchWidth(sp.Name)
		case "shard.execute":
			executeSpans = append(executeSpans, sp)
		case "shard.lease":
			shards.Leases++
			if sp.Attr("retry_cause") != "" {
				shards.Retries++
			}
			if sp.Attr("completed_by") != "" {
				leaseSpans = append(leaseSpans, sp)
			}
		case "shard.cached":
			shards.Cached++
		}
	}
	// Worker attribution prefers execute spans (exact busy time,
	// recorded by the worker itself). In-process federations record
	// them into this recorder; out-of-process workers do not, so the
	// coordinator-side lease spans — grant to completion, a superset
	// of busy time — stand in. Never both: that would double-count.
	workers := map[string]*WorkerReport{}
	attributed := executeSpans
	if len(attributed) == 0 {
		attributed = leaseSpans
	}
	for _, sp := range attributed {
		wr := workerReport(workers, sp.Attr("worker"), ex)
		wr.Shards++
		wr.BusySeconds += sp.DurationMS / 1e3
		addCellRange(wr, sp, results)
	}
	if ex.Batches > 0 {
		ex.MeanBatchKs = float64(batchCells) / float64(ex.Batches)
	}
	if shards.Leases > 0 || shards.Cached > 0 {
		ex.Shards = &shards
	}
	ex.SpansDropped = s.obs.rec.Dropped()

	if len(ex.Workers) == 0 {
		// Local campaign: one synthetic worker covering every cell, so
		// report consumers can assert worker thresholds in any mode.
		var cycles uint64
		for i := range results {
			cycles += results[i].Cycles
		}
		wr := WorkerReport{Worker: "local", Cells: len(results), BusySeconds: ex.SimSeconds, Cycles: cycles}
		if wr.BusySeconds == 0 {
			wr.BusySeconds = ex.WallSeconds
		}
		ex.Workers = append(ex.Workers, wr)
	}
	sort.Slice(ex.Workers, func(a, b int) bool { return ex.Workers[a].Worker < ex.Workers[b].Worker })
	var busyMax, busyMin, busySum float64
	cellsMax, cellsMin := 0, 0
	for i := range ex.Workers {
		wr := &ex.Workers[i]
		if wr.BusySeconds > 0 {
			wr.KCyclesPerSec = float64(wr.Cycles) / wr.BusySeconds / 1e3
		}
		busySum += wr.BusySeconds
		if i == 0 || wr.BusySeconds > busyMax {
			busyMax = wr.BusySeconds
		}
		if i == 0 || wr.BusySeconds < busyMin {
			busyMin = wr.BusySeconds
		}
		if i == 0 || wr.Cells > cellsMax {
			cellsMax = wr.Cells
		}
		if i == 0 || wr.Cells < cellsMin {
			cellsMin = wr.Cells
		}
	}
	if mean := busySum / float64(len(ex.Workers)); mean > 0 {
		ex.StragglerIndex = busyMax / mean
	}
	if cellsMin > 0 {
		ex.ImbalanceRatio = float64(cellsMax) / float64(cellsMin)
	}

	if s.obs.ts != nil && jobSpan != nil {
		pts := s.obs.ts.Query(tsdb.Query{
			Family: "paco_sim_kcycles_per_sec_last",
			Since:  jobSpan.Start,
		})
		for _, series := range pts {
			if series.Labels == "" {
				ex.Throughput = trimAfter(series.Points, jobSpan.End)
				break
			}
		}
	}
	return ex
}

// workerReport returns (creating on first sight) the named worker's
// row, registered into ex.Workers by pointer-stable index.
func workerReport(m map[string]*WorkerReport, name string, ex *ExecutionReport) *WorkerReport {
	if name == "" {
		name = "(unknown)"
	}
	if wr := m[name]; wr != nil {
		return wr
	}
	ex.Workers = append(ex.Workers, WorkerReport{Worker: name})
	wr := &ex.Workers[len(ex.Workers)-1]
	// Appends may reallocate; refresh every cached pointer.
	for i := range ex.Workers {
		m[ex.Workers[i].Worker] = &ex.Workers[i]
	}
	return wr
}

// addCellRange credits a span's [lo, hi) cell range to a worker row.
func addCellRange(wr *WorkerReport, sp *obs.SpanRecord, results []campaign.Result) {
	lo, errLo := strconv.Atoi(sp.Attr("lo"))
	hi, errHi := strconv.Atoi(sp.Attr("hi"))
	if errLo != nil || errHi != nil || lo < 0 || hi > len(results) || lo >= hi {
		return
	}
	wr.Cells += hi - lo
	for i := lo; i < hi; i++ {
		wr.Cycles += results[i].Cycles
	}
}

// batchWidth parses the cell count out of a batch span name
// ("<key>*<k>"), 0 when unparseable.
func batchWidth(name string) int {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '*' {
			k, err := strconv.Atoi(name[i+1:])
			if err != nil {
				return 0
			}
			return k
		}
	}
	return 0
}

// executionRoot walks a cell span's parent chain to the span whose
// start marks when its executing context began: the shard execution
// for federated cells, the job span otherwise.
func executionRoot(sp *obs.SpanRecord, byID map[uint64]*obs.SpanRecord) *obs.SpanRecord {
	for hop := 0; hop < 8; hop++ {
		parent := byID[sp.Parent]
		if parent == nil {
			return nil
		}
		if parent.Kind == "shard.execute" || parent.Kind == "job" {
			return parent
		}
		sp = parent
	}
	return nil
}

// trimAfter drops points later than end (plus one sampling period of
// slack so the final sample of a run is kept).
func trimAfter(pts []tsdb.Point, end time.Time) []tsdb.Point {
	cut := end.Add(2 * time.Second).UnixMilli()
	out := pts[:0:len(pts)]
	for _, p := range pts {
		if p.T <= cut {
			out = append(out, p)
		}
	}
	return out
}

package campaign

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"sort"
	"strconv"

	"paco/internal/cpu"
)

// Result is the structured record one job produces. The fixed fields
// are filled by the engine for simulation jobs (Exec jobs fill what they
// measure); Extra carries experiment-specific scalars such as confidence
// RMS error. Results marshal deterministically: fixed field order, Extra
// keys sorted by encoding/json.
type Result struct {
	// JobID and Index identify the job within its campaign.
	JobID string `json:"job_id"`
	Index int    `json:"index"`

	// Benchmark and Seed identify the workload actually run.
	Benchmark string `json:"benchmark,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`

	// Cycles is the measured-window cycle count; IPC the measured
	// thread's retired instructions per cycle.
	Cycles uint64  `json:"cycles,omitempty"`
	IPC    float64 `json:"ipc,omitempty"`

	// Stats are the measured thread's counters (retired/fetched/executed
	// by path, mispredicts, squashes, gated cycles, MDC buckets).
	Stats cpu.ThreadStats `json:"stats"`

	// Extra holds experiment-specific measurements recorded by a
	// Collect hook or an Exec job.
	Extra map[string]float64 `json:"extra,omitempty"`

	// Err records a job failure (error, panic, or cancellation); Skipped
	// marks jobs never started because the campaign was cancelled.
	Err     string `json:"error,omitempty"`
	Skipped bool   `json:"skipped,omitempty"`
}

// Failed reports whether the job produced no usable measurement.
func (r *Result) Failed() bool { return r.Err != "" }

// SetExtra records one experiment-specific scalar.
func (r *Result) SetExtra(key string, v float64) {
	if r.Extra == nil {
		r.Extra = map[string]float64{}
	}
	r.Extra[key] = v
}

// Merge combines result shards — e.g. from campaign slices run in
// different processes — into one slice ordered by job index, ties broken
// by job ID. Merging the shards of a split campaign reproduces the
// result order of the unsplit run, as long as the split preserved
// indices.
func Merge(shards ...[]Result) []Result {
	var out []Result
	for _, s := range shards {
		out = append(out, s...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Index != out[j].Index {
			return out[i].Index < out[j].Index
		}
		return out[i].JobID < out[j].JobID
	})
	return out
}

// Summary aggregates a campaign's results.
type Summary struct {
	Jobs      int     `json:"jobs"`
	Completed int     `json:"completed"`
	Failed    int     `json:"failed"`
	Skipped   int     `json:"skipped"`
	Cycles    uint64  `json:"cycles"`
	Retired   uint64  `json:"retired"`
	MeanIPC   float64 `json:"mean_ipc"`
}

// Summarize folds results (in order) into a Summary. MeanIPC averages
// over completed jobs only.
func Summarize(results []Result) Summary {
	s := Summary{Jobs: len(results)}
	var ipcSum float64
	for i := range results {
		r := &results[i]
		switch {
		case r.Skipped:
			s.Skipped++
		case r.Failed():
			s.Failed++
		default:
			s.Completed++
			s.Cycles += r.Cycles
			s.Retired += r.Stats.RetiredGood
			ipcSum += r.IPC
		}
	}
	if s.Completed > 0 {
		s.MeanIPC = ipcSum / float64(s.Completed)
	}
	return s
}

// WriteJSON writes results as indented JSON. The encoding is
// deterministic for deterministic results.
func WriteJSON(w io.Writer, results []Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

// csvFixed is the fixed CSV column set, in order.
var csvFixed = []string{
	"index", "job_id", "benchmark", "seed", "cycles", "ipc",
	"retired_good", "fetched_good", "fetched_bad", "executed_good",
	"executed_bad", "squashed", "recoveries", "gated_cycles",
	"ctrl_retired", "ctrl_mispredicts", "cond_retired", "cond_mispredicts",
	"error",
}

// WriteCSV writes results as CSV: the fixed counter columns followed by
// one column per Extra key present anywhere in the slice, sorted.
func WriteCSV(w io.Writer, results []Result) error {
	keySet := map[string]bool{}
	for i := range results {
		for k := range results[i].Extra {
			keySet[k] = true
		}
	}
	extraKeys := make([]string, 0, len(keySet))
	for k := range keySet {
		extraKeys = append(extraKeys, k)
	}
	sort.Strings(extraKeys)

	cw := csv.NewWriter(w)
	if err := cw.Write(append(append([]string{}, csvFixed...), extraKeys...)); err != nil {
		return err
	}
	for i := range results {
		r := &results[i]
		st := &r.Stats
		row := []string{
			strconv.Itoa(r.Index), r.JobID, r.Benchmark,
			strconv.FormatUint(r.Seed, 10),
			strconv.FormatUint(r.Cycles, 10),
			strconv.FormatFloat(r.IPC, 'g', -1, 64),
			strconv.FormatUint(st.RetiredGood, 10),
			strconv.FormatUint(st.FetchedGood, 10),
			strconv.FormatUint(st.FetchedBad, 10),
			strconv.FormatUint(st.ExecutedGood, 10),
			strconv.FormatUint(st.ExecutedBad, 10),
			strconv.FormatUint(st.Squashed, 10),
			strconv.FormatUint(st.Recoveries, 10),
			strconv.FormatUint(st.GatedCycles, 10),
			strconv.FormatUint(st.CtrlRetired, 10),
			strconv.FormatUint(st.CtrlMispredicts, 10),
			strconv.FormatUint(st.CondRetired, 10),
			strconv.FormatUint(st.CondMispredicts, 10),
			r.Err,
		}
		for _, k := range extraKeys {
			v, ok := r.Extra[k]
			if !ok {
				row = append(row, "")
				continue
			}
			row = append(row, strconv.FormatFloat(v, 'g', -1, 64))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

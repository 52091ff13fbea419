package server

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"paco/internal/campaign"
)

// checkHead compares j's hand-written status head, with spec spliced
// in, against json.Marshal of its status.
func checkHead(t *testing.T, j *job, spec []byte) {
	t.Helper()
	want, err := json.Marshal(j.status(false))
	if err != nil {
		t.Fatal(err)
	}
	got := append(j.appendHead(nil, spec), '}')
	if !bytes.Equal(got, want) {
		t.Errorf("status head differs from json.Marshal:\n got %s\nwant %s", got, want)
	}
}

// storedSpec is grid as a job entry stores it: json.Marshal's bytes.
func storedSpec(t testing.TB, grid campaign.Grid) []byte {
	t.Helper()
	spec, err := json.Marshal(grid)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestHitHeadMatchesMarshalIndent: the hand-written head equals
// json.Marshal's bytes for a job in every state — queued, running
// locally and federated, done, failed with failed and skipped cells,
// and answered from a cache entry — under traces and error text that
// need every kind of escaping json.Marshal does. (The name predates
// the compact wire format.)
func TestHitHeadMatchesMarshalIndent(t *testing.T) {
	grids := []campaign.Grid{mustGrid(t, gatedSpec), mustGrid(t, `{"fuzz":{"seed":3,"count":4}}`)}
	traces := []string{
		"",
		"plain-trace",
		"<script>a && b</script>",
		`quote " backslash \ slash /`,
		"controls \x00\x01\b\f\n\r\t\x1f\x7f",
		"separators \u2028 and \u2029",
		"invalid \xff\xfe UTF-8 \xc3 and a lone \xed\xa0\x80 surrogate",
		"emoji 🚀 and ✓",
	}
	failed := campaign.Summary{Jobs: 5, Completed: 2, Failed: 2, Skipped: 1, Cycles: 1 << 40, Retired: 77, MeanIPC: 1.0 / 3}
	states := map[string]func(j *job){
		"queued":          func(j *job) {},
		"running locally": func(j *job) { j.start(&campaign.Runner{}) },
		"running federated": func(j *job) {
			j.start(nil)
			j.shardProgress(3, "s-1")
		},
		"done": func(j *job) {
			j.complete(nil, campaign.Summary{Jobs: 8, Completed: 8, Cycles: 123456, Retired: 96000, MeanIPC: 1.25})
		},
		"failed":                 func(j *job) { j.fail("cell gzip/w4: panic: <nil> & \"quoted\" \u2028 \xff", &failed) },
		"failed without summary": func(j *job) { j.fail("server shut down before the job ran", nil) },
	}
	for gi, grid := range grids {
		spec := storedSpec(t, grid)
		for _, trace := range traces {
			for name, settle := range states {
				j := newJob("j-000042", "feedface", grid, 8, trace)
				settle(j)
				t.Run(name, func(t *testing.T) { checkHead(t, j, spec) })
			}
			// A hit's job: its spec is the entry's, decoded on demand.
			e, err := jobEntry(grid, syntheticResults(8), failed)
			if err != nil {
				t.Fatal(err)
			}
			j := newJob("j-000043", "feedface", campaign.Grid{}, 8, trace)
			j.completeFromCache(parseStored(e))
			checkHead(t, j, j.storedSpec)
			if got, _ := j.gridLocked(); gi == 0 && len(got.Benchmarks) != 2 {
				t.Errorf("a hit's decoded spec has benchmarks %v", got.Benchmarks)
			}
		}
	}
}

// TestMarshalFloatMatchesEncoder: appendMarshalFloat spells floats as
// encoding/json does, across both notations and their boundaries.
func TestMarshalFloatMatchesEncoder(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 1.0 / 3, 1.25, 1e-6, 9.99e-7, 1e-7, 1.5e-300,
		1e20, 1e21, 123456789e15, math.MaxFloat64, math.SmallestNonzeroFloat64, -2.5e-8,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendMarshalFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("appendMarshalFloat(%v) = %s, want %s", f, got, want)
		}
	}
}

// FuzzHitHead compares the hand-written head with json.Marshal
// for arbitrary job identities, traces, error text, states, timestamps
// and summaries.
func FuzzHitHead(f *testing.F) {
	f.Add("j-000001", "trace <&>", "", uint8(0), 8, 0, int64(0), int64(0), true, 8, 8, 0, 0, uint64(1), uint64(2), 1.25)
	f.Add("j-1", " \xff\"", "boom \x00", uint8(3), 5, 3, int64(1), int64(-1), true, 5, 2, 2, 1, uint64(1<<63), uint64(0), 1e-7)
	f.Add("", "", "", uint8(1), -1, -7, int64(1e18), int64(7), false, 0, 0, 0, 0, uint64(0), uint64(0), 0.0)
	grid := mustGrid(f, gatedSpec)
	spec := storedSpec(f, grid)
	f.Fuzz(func(t *testing.T, id, trace, errMsg string, state uint8, cells, cellsDone int,
		startedNs, finishedNs int64, withSummary bool, jobs, completed, failed, skipped int,
		cycles, retired uint64, mean float64) {
		if math.IsNaN(mean) || math.IsInf(mean, 0) {
			t.Skip("json.Marshal refuses non-finite numbers")
		}
		j := newJob(id, "key "+id, grid, cells, trace)
		j.state = []string{stateQueued, stateRunning, stateDone, stateFailed}[state%4]
		j.cellsDone = cellsDone
		j.errMsg = errMsg
		j.created = time.Unix(0, startedNs^finishedNs).UTC()
		if startedNs != 0 {
			j.started = time.Unix(0, startedNs).UTC()
		}
		if finishedNs != 0 {
			j.finished = time.Unix(0, finishedNs).UTC()
		}
		if withSummary {
			j.summary = &campaign.Summary{Jobs: jobs, Completed: completed, Failed: failed, Skipped: skipped,
				Cycles: cycles, Retired: retired, MeanIPC: mean}
		}
		checkHead(t, j, spec)
	})
}

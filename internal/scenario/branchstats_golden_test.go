package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"paco/internal/workload"
)

const branchStatsGoldenPath = "testdata/branchstats_golden.json"

// branchStatsGoldenInstrs is how many goodpath instructions each program
// walks before its static branches are summarized: past every phase of
// gcc's schedule and of the default server scenario.
const branchStatsGoldenInstrs = 200_000

// branchStatsGolden is one program's static-branch summary: the branch
// count, per-class executed and taken totals (readable in a diff), and a
// hash over every branch's id, class, executed and taken counts (which
// pins each branch, not just the totals).
type branchStatsGolden struct {
	Branches int               `json:"branches"`
	Executed map[string]uint64 `json:"executed"`
	Taken    map[string]uint64 `json:"taken"`
	Hash     string            `json:"sha256"`
}

func summarizeBranchStats(t *testing.T, spec *workload.Spec) branchStatsGolden {
	t.Helper()
	w, err := workload.NewWalker(spec)
	if err != nil {
		t.Fatal(err)
	}
	var ins workload.Instruction
	for range branchStatsGoldenInstrs {
		w.NextInto(&ins)
	}
	stats := w.BranchStats()
	out := branchStatsGolden{
		Branches: len(stats),
		Executed: map[string]uint64{},
		Taken:    map[string]uint64{},
	}
	h := sha256.New()
	var buf [8 + 1 + 8 + 8]byte
	for _, bs := range stats {
		b := binary.LittleEndian.AppendUint64(buf[:0], uint64(bs.ID))
		b = append(b, byte(bs.Class))
		b = binary.LittleEndian.AppendUint64(b, bs.Executed)
		b = binary.LittleEndian.AppendUint64(b, bs.Taken)
		h.Write(b)
		out.Executed[bs.Class.String()] += bs.Executed
		out.Taken[bs.Class.String()] += bs.Taken
	}
	out.Hash = hex.EncodeToString(h.Sum(nil))
	return out
}

// TestBranchStatsGolden pins what every static branch of gzip, gcc,
// perlbmk and the default server scenario does over the first 200k
// instructions: its class, how often it ran and how often it was taken.
// The stream golden hashes instructions; this one pins the per-branch
// generator state behind them, so a change to how branches are stored or
// drawn must keep each branch's own RNG stream. Run with -update to
// regenerate the file after an intended behaviour change.
func TestBranchStatsGolden(t *testing.T) {
	got := map[string]branchStatsGolden{}
	for _, name := range []string{"gzip", "gcc", "perlbmk"} {
		got[name] = summarizeBranchStats(t, workload.MustBenchmark(name))
	}
	spec, err := Scenario{Family: "server", Seed: 7}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	got["server"] = summarizeBranchStats(t, spec)
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(branchStatsGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(branchStatsGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]branchStatsGolden
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d programs, test produced %d", len(want), len(got))
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: missing from %s", name, branchStatsGoldenPath)
			continue
		}
		gb, _ := json.Marshal(g)
		wb, _ := json.Marshal(w)
		if !bytes.Equal(gb, wb) {
			t.Errorf("%s: branch statistics moved\n got %s\nwant %s", name, gb, wb)
		}
	}
}

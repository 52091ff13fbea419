package smt

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/smt_golden.json from the current kernel")

const smtGoldenPath = "testdata/smt_golden.json"

// smtGoldenPairs are three Figure 12 pairs: a mispredict-heavy pair, a
// predictable one, and one that mixes the two.
var smtGoldenPairs = []Pair{{"gcc", "twolf"}, {"crafty", "vortex"}, {"perlbmk", "vprRoute"}}

// smtGoldenPolicies are Figure 12's six fetch policies.
func smtGoldenPolicies() []Policy {
	return []Policy{
		ICount{},
		ConfCount{Threshold: 3}, ConfCount{Threshold: 7},
		ConfCount{Threshold: 11}, ConfCount{Threshold: 15},
		&PaCoPolicy{RefreshPeriod: 10_000},
	}
}

// smtGolden returns the float64 bits of every IPC the golden pins:
// RunPair's two IPCs per pair and policy, and SingleIPC per benchmark.
func smtGolden(t *testing.T) map[string][]uint64 {
	t.Helper()
	got := map[string][]uint64{}
	for _, pair := range smtGoldenPairs {
		for _, pol := range smtGoldenPolicies() {
			a, b, err := RunPair(testRC(), pair, pol)
			if err != nil {
				t.Fatal(err)
			}
			got[pair.String()+"/"+pol.Name()] = []uint64{math.Float64bits(a), math.Float64bits(b)}
		}
		for _, name := range []string{pair.A, pair.B} {
			ipc, err := SingleIPC(testRC(), name)
			if err != nil {
				t.Fatal(err)
			}
			got[name+"/single"] = []uint64{math.Float64bits(ipc)}
		}
	}
	return got
}

// TestSMTGolden pins the two-thread machine's IPCs under every Figure 12
// fetch policy, bit for bit: TestKernelGolden covers only the
// single-thread core, and the chooser path (shared ROB, per-cycle policy
// calls, two walkers) is half of the evaluation's simulated cycles. Run
// with -update to regenerate the file after an intended behaviour change.
func TestSMTGolden(t *testing.T) {
	got := smtGolden(t)
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(smtGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(smtGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string][]uint64
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d runs, kernel ran %d", len(want), len(got))
	}
	for k, g := range got {
		if w, ok := want[k]; !ok {
			t.Errorf("%s: missing from %s", k, smtGoldenPath)
		} else if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: IPC bits moved\n got %x\nwant %x", k, g, w)
		}
	}
}

package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"paco/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/stream_golden.json from the current workload generator")

const streamGoldenPath = "testdata/stream_golden.json"

// streamGoldenInstrs is how many goodpath instructions each golden stream
// hashes: enough to cross several gcc phase switches and walk deep into
// every region, cheap enough to run under -race.
const streamGoldenInstrs = 50_000

// streamGoldenFuzz is the fuzzed scenario set the golden covers beyond the
// bundled benchmarks: six seeds of four documents each, spanning every
// family and the mix/splice/phase-morph/override operators.
var streamGoldenFuzz = []FuzzSpec{
	{Seed: 1, Count: 4}, {Seed: 2, Count: 4}, {Seed: 3, Count: 4},
	{Seed: 4, Count: 4}, {Seed: 5, Count: 4}, {Seed: 6, Count: 4},
}

// streamHash returns the SHA-256 of the spec's first n goodpath
// instructions, every field encoded little-endian in declaration order.
func streamHash(t *testing.T, spec *workload.Spec, n int) string {
	t.Helper()
	w, err := workload.NewWalker(spec)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [2 + 8*8]byte // Kind and Taken, then eight 8-byte fields
	for i := 0; i < n; i++ {
		ins := w.Next()
		b := buf[:0]
		b = binary.LittleEndian.AppendUint64(b, ins.PC)
		b = append(b, byte(ins.Kind))
		if ins.Taken {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = binary.LittleEndian.AppendUint64(b, ins.NextPC)
		b = binary.LittleEndian.AppendUint64(b, ins.AltPC)
		b = binary.LittleEndian.AppendUint64(b, ins.Addr)
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(ins.Dep1)))
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(ins.Dep2)))
		b = binary.LittleEndian.AppendUint64(b, ins.Lat)
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(ins.StaticID)))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStreamGolden pins the goodpath instruction stream of every bundled
// benchmark and of a fuzzed scenario set to committed hashes, so a change
// to how workload programs are built or walked must reproduce the exact
// same streams. Run with -update to regenerate the file after an intended
// behaviour change.
func TestStreamGolden(t *testing.T) {
	got := map[string]string{}
	for _, name := range workload.BenchmarkNames {
		got[name] = streamHash(t, workload.MustBenchmark(name), streamGoldenInstrs)
	}
	for _, fs := range streamGoldenFuzz {
		scs, err := fs.Generate()
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range scs {
			spec, err := sc.Compile()
			if err != nil {
				t.Fatalf("%s: %v", sc.Name, err)
			}
			if _, dup := got[sc.Name]; dup {
				t.Fatalf("%s: duplicate stream name", sc.Name)
			}
			got[sc.Name] = streamHash(t, spec, streamGoldenInstrs)
		}
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(streamGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(streamGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]string
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d streams, generator produced %d", len(want), len(got))
	}
	for name, g := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: missing from %s", name, streamGoldenPath)
		} else if g != w {
			t.Errorf("%s: instruction stream moved\n got %s\nwant %s", name, g, w)
		}
	}
}

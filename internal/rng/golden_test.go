package rng

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/rng_golden.json from the current generator")

const rngGoldenPath = "testdata/rng_golden.json"

// goldenDraws is how many outputs each golden case hashes.
const goldenDraws = 1000

// goldenSlowDraws bounds Geometric at p=1e-9: nearly every sample runs
// to the 2^20-draw cap, so 1,000 of them would cost a billion draws.
const goldenSlowDraws = 8

// goldenStreams are the (seed, stream) pairs every case runs on.
var goldenStreams = [][2]uint64{{1, 0}, {42, 0x5eed}, {0xdeadbeef, 0xbad}}

// goldenProbs are the probabilities Bool and Geometric are pinned at:
// the walker's constants and dependence parameters, the block-length
// parameter 1/AvgBlockLen (AvgBlockLen 6 and 5), vanishing ones (1e-9
// and the smallest float64), the float64 just below 1 (1-2^-53, which
// is math.Nextafter(1, 0)), and the edges that draw nothing (0, 1) or
// never succeed (NaN).
var goldenProbs = []float64{
	0.22, 0.5, 0.55, 0.3, 0.1, 0.4, 1.0 / 6, 1.0 / 5,
	1e-9, 0x1p-1074, 1 - 0x1p-53, 0, 1, math.NaN(),
}

// goldenCase hashes n outputs of draw, each as 8 little-endian bytes,
// followed by the generator's final state.
func goldenCase(r *RNG, n int, draw func(*RNG) uint64) string {
	h := sha256.New()
	var b [8]byte
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(b[:], draw(r))
		h.Write(b[:])
	}
	binary.LittleEndian.PutUint64(b[:], r.state)
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], r.inc)
	h.Write(b[:])
	return hex.EncodeToString(h.Sum(nil))
}

func rngGolden() map[string]string {
	got := map[string]string{}
	for _, ss := range goldenStreams {
		key := func(name string) string { return fmt.Sprintf("%d/%#x/%s", ss[0], ss[1], name) }
		run := func(name string, n int, draw func(*RNG) uint64) {
			got[key(name)] = goldenCase(NewStream(ss[0], ss[1]), n, draw)
		}
		run("uint64", goldenDraws, func(r *RNG) uint64 { return r.Uint64() })
		run("float64", goldenDraws, func(r *RNG) uint64 { return math.Float64bits(r.Float64()) })
		for _, p := range goldenProbs {
			run(fmt.Sprintf("bool(%v)", p), goldenDraws, func(r *RNG) uint64 {
				if r.Bool(p) {
					return 1
				}
				return 0
			})
			n := goldenDraws
			if p < 1e-6 || math.IsNaN(p) {
				n = goldenSlowDraws
			}
			run(fmt.Sprintf("geometric(%v)", p), n, func(r *RNG) uint64 { return uint64(r.Geometric(NewThreshold(p))) })
		}
	}
	return got
}

// TestRNGGolden pins the generator's outputs (Uint64, Float64, Bool and
// Geometric at the probabilities the simulator draws with) and the
// state each sequence leaves behind, so a faster draw must consume
// exactly the same draws. Run with -update to regenerate the file after
// an intended behaviour change.
func TestRNGGolden(t *testing.T) {
	got := rngGolden()
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(rngGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(rngGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want map[string]string
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		for k, g := range got {
			if w, ok := want[k]; !ok {
				t.Errorf("%s: missing from %s", k, rngGoldenPath)
			} else if g != w {
				t.Errorf("%s: sequence moved\n got %s\nwant %s", k, g, w)
			}
		}
		if len(got) != len(want) {
			t.Errorf("golden has %d cases, generator produced %d", len(want), len(got))
		}
	}
}

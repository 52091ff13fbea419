package session

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// indentJSON renders v the way the server writes every response body
// (json.Encoder, two-space indent, trailing newline).
func indentJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// scoreFloat draws from the float64 classes the encoder formats
// differently: zeros of both signs, subnormals, the 'e'-notation
// thresholds, the extremes, and arbitrary finite bit patterns.
func scoreFloat(r *rand.Rand) float64 {
	switch r.Intn(12) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.SmallestNonzeroFloat64
	case 3:
		return math.Float64frombits(r.Uint64() & (1<<52 - 1)) // subnormal
	case 4:
		return 0x1p-1022 // smallest normal
	case 5:
		return math.MaxFloat64
	case 6:
		return -math.MaxFloat64
	case 7:
		return 1e21 // first value encoded in 'e' notation
	case 8:
		return 1e-6 // smallest value encoded without it
	case 9:
		return math.Nextafter(1e-6, 0)
	case 10:
		return r.Float64()
	default:
		for {
			f := math.Float64frombits(r.Uint64())
			if !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
}

// scoreString draws valid UTF-8 with the characters the encoder escapes
// (HTML, quotes, controls, line separators). Invalid UTF-8 is out of
// scope: the encoder rewrites it to U+FFFD, so it could not round-trip,
// and no session message contains it.
func scoreString(r *rand.Rand) string {
	parts := []string{"", "paco", "count", "<b>&amp;</b>", `"quoted"\`, "\x01\t\n", "  ", "ünïcødé", "🙂", "\u2028\u2029", "session: closed (client)"}
	var b bytes.Buffer
	for n := r.Intn(4); n > 0; n-- {
		b.WriteString(parts[r.Intn(len(parts))])
	}
	return b.String()
}

func randScores(r *rand.Rand) Scores {
	u64 := func() uint64 {
		if r.Intn(4) == 0 {
			return math.MaxUint64
		}
		return uint64(r.Intn(1 << 20))
	}
	sc := Scores{
		Events: u64(), Fetches: u64(), Resolves: u64(), Squashes: u64(),
		Retires: u64(), Mispredict: u64(), Cycles: u64(),
		Inflight: r.Intn(100) - 1,
		Queued:   r.Intn(2) * r.Intn(1<<16), // zero half the time: omitempty
		Final:    r.Intn(2) == 0,
		Error:    scoreString(r),
	}
	switch r.Intn(3) {
	case 0: // nil: "estimators": null
	case 1:
		sc.Estimators = []EstimatorScore{}
	default:
		for n := 1 + r.Intn(4); n > 0; n-- {
			es := EstimatorScore{Kind: scoreString(r), Instances: uint64(r.Intn(2) * r.Intn(1000))}
			if r.Intn(2) == 0 {
				v := []int64{0, -1, math.MinInt64, math.MaxInt64, r.Int63()}[r.Intn(5)]
				es.EncodedSum = &v
			}
			if r.Intn(2) == 0 {
				v := scoreFloat(r)
				es.PGoodpath = &v
			}
			if r.Intn(2) == 0 {
				v := scoreFloat(r)
				es.RMSError = &v
			}
			if r.Intn(2) == 0 {
				v := r.Intn(3) * r.Intn(1<<20)
				es.LowConfidence = &v
			}
			sc.Estimators = append(sc.Estimators, es)
		}
	}
	return sc
}

// TestScoresJSONRoundTrip pins the assumption routed sessions rest on.
// A session worker renders Scores with the server's indented encoder; a
// routing coordinator decodes that reply into Scores and renders it
// again, so clients see the worker's bytes only if decode-then-encode is
// the identity. The same holds for the compact frames of the live
// stream, which the coordinator also decodes and re-marshals.
func TestScoresJSONRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(20080216))
	for i := 0; i < 5000; i++ {
		sc := randScores(r)
		want := indentJSON(t, sc)
		compact, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		for _, wire := range [][]byte{compact, want} {
			var back Scores
			if err := json.Unmarshal(wire, &back); err != nil {
				t.Fatalf("case %d: %v\n%s", i, err, wire)
			}
			if got := indentJSON(t, back); !bytes.Equal(got, want) {
				t.Fatalf("case %d: indented re-encoding differs:\n got %s\nwant %s", i, got, want)
			}
			if got, _ := json.Marshal(back); !bytes.Equal(got, compact) {
				t.Fatalf("case %d: compact re-encoding differs:\n got %s\nwant %s", i, got, compact)
			}
		}
	}
}

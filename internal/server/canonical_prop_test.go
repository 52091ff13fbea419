package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"paco/internal/campaign"
	"paco/internal/scenario"
)

// Property test for CanonicalJSON and grid cache keys (the hashing the
// whole federation's content addressing rests on). A seeded generator
// re-spells every document in a corpus — random field order, random
// whitespace, random but value-preserving number forms, defaults spelled
// out vs omitted, scenario-vs-benchmark family spellings — and asserts:
//
//  1. canonicalization is idempotent,
//  2. every spelling of one document canonicalizes to one byte string,
//  3. every spelling of one sweep hashes to one cache key, and
//  4. distinct sweeps never collide across the corpus (which includes
//     the PR 4 scenario families and a seeded fuzz batch).

// renderJSON re-spells a decoded JSON value: object keys in random
// order, random insignificant whitespace, numbers in a random
// value-preserving form.
// respell false keeps every number spelled exactly as decoded — the
// mode grid-key tests use, since the server's Grid decoder (like any
// json.Unmarshal into uint64 fields) rejects float spellings of
// integer fields.
func renderJSON(r *rand.Rand, v any, respell bool) string {
	var b strings.Builder
	writeJSONVariant(r, &b, v, respell)
	return b.String()
}

func ws(r *rand.Rand, b *strings.Builder) {
	for i := r.Intn(3); i > 0; i-- {
		b.WriteString([]string{" ", "\n", "\t"}[r.Intn(3)])
	}
}

func writeJSONVariant(r *rand.Rand, b *strings.Builder, v any, respell bool) {
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		b.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			ws(r, b)
			fmt.Fprintf(b, "%q", k)
			ws(r, b)
			b.WriteByte(':')
			ws(r, b)
			writeJSONVariant(r, b, x[k], respell)
		}
		ws(r, b)
		b.WriteByte('}')
	case []any:
		b.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				b.WriteByte(',')
			}
			ws(r, b)
			writeJSONVariant(r, b, e, respell)
		}
		ws(r, b)
		b.WriteByte(']')
	case json.Number:
		if respell {
			b.WriteString(respellNumber(r, string(x)))
		} else {
			b.WriteString(string(x))
		}
	case float64:
		s := strconv.FormatFloat(x, 'g', -1, 64)
		if respell {
			s = respellNumber(r, s)
		}
		b.WriteString(s)
	case string:
		fmt.Fprintf(b, "%q", x)
	case bool:
		fmt.Fprintf(b, "%v", x)
	case nil:
		b.WriteString("null")
	default:
		panic(fmt.Sprintf("renderJSON: unhandled %T", v))
	}
}

// respellNumber rewrites a JSON number without changing its float64
// value: integers may grow a ".0" suffix or collapse trailing zeros into
// an exponent ("20000" -> "2e4").
func respellNumber(r *rand.Rand, s string) string {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return s
	}
	if f != math.Trunc(f) || math.Abs(f) >= 1e15 {
		return s
	}
	switch r.Intn(3) {
	case 0:
		if f != 0 && math.Mod(f, 10) == 0 {
			exp := 0
			m := f
			for math.Mod(m, 10) == 0 {
				m /= 10
				exp++
			}
			return fmt.Sprintf("%de%d", int64(m), exp)
		}
	case 1:
		return fmt.Sprintf("%d.0", int64(f))
	}
	return s
}

// decodeAny parses JSON preserving number spellings.
func decodeAny(t *testing.T, doc string) any {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(doc))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("decoding %q: %v", doc, err)
	}
	return v
}

// keyOf parses a grid document, normalizes it, and returns its cache
// key.
func keyOf(t *testing.T, doc string) string {
	t.Helper()
	var g campaign.Grid
	if err := json.Unmarshal([]byte(doc), &g); err != nil {
		t.Fatalf("parsing grid %q: %v", doc, err)
	}
	n, err := g.Normalized()
	if err != nil {
		t.Fatalf("normalizing %q: %v", doc, err)
	}
	k, err := specKey(n)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// propCorpus is the distinct-sweep corpus: hand-written sweeps, every
// scenario family from PR 4, and a seeded fuzz batch of generated
// scenario documents (nested param objects stress number
// canonicalization).
func propCorpus(t *testing.T) map[string]string {
	t.Helper()
	corpus := map[string]string{
		"gzip":        `{"benchmarks":["gzip"]}`,
		"twolf":       `{"benchmarks":["twolf"]}`,
		"widths":      `{"benchmarks":["gzip","twolf"],"widths":[2,4]}`,
		"sized":       `{"benchmarks":["gzip"],"instructions":20000,"warmup":5000}`,
		"gated":       `{"benchmarks":["gzip"],"prob_gates":[0.2],"thresholds":[3],"gate_count":4}`,
		"refresh":     `{"benchmarks":["gzip"],"refresh":[100000,200000]}`,
		"seeded":      `{"scenarios":[{"family":"phase-thrash"}],"seed":7}`,
		"fuzz-1-3":    `{"fuzz":{"seed":1,"count":3}}`,
		"fuzz-2-3":    `{"fuzz":{"seed":2,"count":3}}`,
		"fuzz-1-4":    `{"fuzz":{"seed":1,"count":4}}`,
		"mixed":       `{"benchmarks":["gzip","interpreter"],"scenarios":[{"family":"loopy"}]}`,
		"fuzz-triple": `{"benchmarks":["twolf"],"fuzz":{"seed":9,"count":2},"widths":[2]}`,
	}
	for _, fam := range scenario.FamilyNames() {
		corpus["family-"+fam] = fmt.Sprintf(`{"scenarios":[{"family":%q}]}`, fam)
	}
	fuzzed, err := scenario.FuzzSpec{Seed: 42, Count: 6}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range fuzzed {
		raw, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		corpus[fmt.Sprintf("fuzzed-doc-%d", i)] = fmt.Sprintf(`{"scenarios":[%s],"instructions":30000}`, raw)
	}
	return corpus
}

func TestCanonicalJSONPropertyIdempotentAndSpellingInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(20260728))
	for name, doc := range propCorpus(t) {
		base, err := CanonicalJSON([]byte(doc))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Idempotence: canonicalizing the canonical form is a no-op.
		again, err := CanonicalJSON(base)
		if err != nil {
			t.Fatalf("%s: recanonicalizing: %v", name, err)
		}
		if !bytes.Equal(base, again) {
			t.Fatalf("%s: canonicalization not idempotent:\n first: %s\nsecond: %s", name, base, again)
		}
		// Spelling invariance: random field order, whitespace, and number
		// forms all collapse to the same canonical bytes.
		v := decodeAny(t, doc)
		for i := 0; i < 16; i++ {
			variant := renderJSON(r, v, true)
			got, err := CanonicalJSON([]byte(variant))
			if err != nil {
				t.Fatalf("%s variant %d (%s): %v", name, i, variant, err)
			}
			if !bytes.Equal(got, base) {
				t.Fatalf("%s variant %d canonicalized differently:\nvariant: %s\n    got: %s\n   want: %s",
					name, i, variant, got, base)
			}
		}
	}
}

func TestGridCacheKeyPropertySpellingInvariantAndCollisionFree(t *testing.T) {
	r := rand.New(rand.NewSource(8344))
	corpus := propCorpus(t)

	keys := map[string]string{} // cache key -> corpus entry
	for name, doc := range corpus {
		base := keyOf(t, doc)
		if prev, dup := keys[base]; dup {
			t.Fatalf("corpus entries %q and %q collide on key %s", prev, name, base)
		}
		keys[base] = name

		// The normalized form spells every default out; the minimal form
		// omits them. Both, under any spelling the generator produces,
		// must hash to the same key.
		var g campaign.Grid
		if err := json.Unmarshal([]byte(doc), &g); err != nil {
			t.Fatal(err)
		}
		norm, err := g.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		normJSON, err := json.Marshal(norm)
		if err != nil {
			t.Fatal(err)
		}
		for _, form := range []string{doc, string(normJSON)} {
			v := decodeAny(t, form)
			for i := 0; i < 8; i++ {
				variant := renderJSON(r, v, false)
				if got := keyOf(t, variant); got != base {
					t.Fatalf("%s: spelling %s hashed to %s, want %s", name, variant, got, base)
				}
			}
		}
	}

	// Scenario-vs-benchmark spelling: a family name on the benchmarks
	// axis is the same sweep as the explicit scenario document.
	for _, fam := range scenario.FamilyNames() {
		asBench := keyOf(t, fmt.Sprintf(`{"benchmarks":[%q]}`, fam))
		asScenario := keyOf(t, fmt.Sprintf(`{"scenarios":[{"family":%q}]}`, fam))
		if asBench != asScenario {
			t.Fatalf("family %s: benchmark-axis key %s != scenario key %s", fam, asBench, asScenario)
		}
		if keys[asBench] != "family-"+fam {
			t.Fatalf("family %s: benchmark-axis spelling left the corpus key set", fam)
		}
	}

	// Fuzz expansion: the declarative fuzz spec and its expanded
	// scenario list are the same sweep.
	fuzzed, err := scenario.FuzzSpec{Seed: 1, Count: 3}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	expanded := struct {
		Scenarios []scenario.Scenario `json:"scenarios"`
	}{Scenarios: fuzzed}
	raw, err := json.Marshal(expanded)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := keyOf(t, string(raw)), keyOf(t, `{"fuzz":{"seed":1,"count":3}}`); got != want {
		t.Fatalf("expanded fuzz batch keyed %s, spec form keyed %s", got, want)
	}
}

// canonicalEdgeCases are documents the corpus generators do not spell:
// escaped, non-ASCII and invalid-UTF-8 strings and keys, duplicate
// keys, every number form the normalization treats apart, trailing
// data, and malformed input.
var canonicalEdgeCases = []string{
	// Strings.
	`"a\"b\\c\/d\b\f\n\r\t"`,
	`"\u0041\u00e9\u00E9\u2028\u2029\u003c\u003e\u0026"`,
	`"<tag> & more"`,
	"\"raw \u2028 and \u2029 separators\"",
	`"\ud83d\ude00 pair, \ud83d lone, \ud83dx, \udc00\ud800, \ud800\u0041"`,
	`"\u0001\u001f\u007f\u0000"`,
	"\"\x7f raw DEL\"",
	"\"invalid \xff\xfe, overlong \xc0\xaf, surrogate \xed\xa0\x80, cut \xe2\x82\"",
	`"ünïcødé ✓ 日本語"`,
	"\"raw \uFFFD and escaped \\ufffd\"",
	// Keys.
	`{"b":1,"\u0061":2,"a":3}`,
	`{"é":1,"e":2,"\u00e9":3,"f":4}`,
	`{"<":1,"\u003c":2,"&":3}`,
	"{\"\xff\":1,\"\\ufffd\":2}",
	// Duplicates: the last value wins, wherever it sits.
	`{"a":1,"a":2}`,
	`{"a":{"x":1},"b":2,"a":[3]}`,
	`{"z":{"k":1,"k":{"k":2,"j":3}},"a":0}`,
	`[{"b":1,"a":2},{"a":1,"b":2},{"a":1,"a":1}]`,
	// Numbers.
	`-0`, `-0.0`, `0e0`, `1E5`, `1e+2`, `1e400`, `-1e400`, `1e-400`, `5e-324`,
	`123456789012345678901234567890`, `18446744073709551615`, `18446744073709551616`,
	`-9223372036854775808`, `-9223372036854775809`, `9.999999999999999e22`,
	`1e-7`, `0.1`, `2e0`, `[1.5e300,-2.25E-3,100.000]`,
	// Literals, empty and spaced containers.
	`true`, `false`, `null`, `[]`, `{}`, `[[],{},[{}]]`, " \t\r\n[ 1 ,\n2 ] \n",
	// Trailing data: a decoder stops at the first document, and does
	// not count a closing bracket after it as more data.
	`{"a":1} x`, `{"a":1}}`, `{"a":1} ] garbage`, `[1]]`, `1 2`, `"a" "b"`,
	"{\"a\":1}\n", `{"a":1} ,`, `{"a":1}{"b":2}`, `3}`,
	// Malformed.
	``, `   `, `{`, `[1,]`, `{"a"}`, `{"a":1,}`, `tru`, `01`, `1.`, `-`,
	"\"\x01\"", `"\q"`, `"\u12"`, `{"a" 1}`, `nul`, `[1 2]`, `{1:2}`, "\xef\xbb\xbf{}",
	strings.Repeat("[", 10000) + strings.Repeat("]", 10000),
	strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
}

var update = flag.Bool("update", false, "rewrite testdata/canonical_golden.json from the current CanonicalJSON")

const canonicalGoldenPath = "testdata/canonical_golden.json"

// canonicalGoldenEntry is CanonicalJSON's result on one edge case, keyed
// by its index in canonicalEdgeCases and the SHA-256 of its bytes. The
// output is Go-quoted, so the file holds exactly the bytes returned.
type canonicalGoldenEntry struct {
	Index       int    `json:"index"`
	InputSHA256 string `json:"input_sha256"`
	Output      string `json:"output,omitempty"`
	Error       string `json:"error,omitempty"`
}

func canonicalGolden() []canonicalGoldenEntry {
	got := make([]canonicalGoldenEntry, len(canonicalEdgeCases))
	for i, doc := range canonicalEdgeCases {
		sum := sha256.Sum256([]byte(doc))
		e := canonicalGoldenEntry{Index: i, InputSHA256: hex.EncodeToString(sum[:])}
		if out, err := CanonicalJSON([]byte(doc)); err != nil {
			e.Error = err.Error()
		} else {
			e.Output = strconv.Quote(string(out))
		}
		got[i] = e
	}
	return got
}

// TestCanonicalJSONGolden pins CanonicalJSON's bytes or error text on
// every edge case, so no rewrite of it moves a content address or an
// admission error. Run with -update only for an intended change of
// content addresses.
func TestCanonicalJSONGolden(t *testing.T) {
	got := canonicalGolden()
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(canonicalGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(canonicalGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want []canonicalGoldenEntry
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d cases, canonicalEdgeCases has %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("edge case %d (%.80q):\n got %+v\nwant %+v", i, canonicalEdgeCases[i], got[i], want[i])
		}
	}
}

// FuzzCanonicalJSON checks the properties content addresses rest on
// for any input CanonicalJSON accepts: the output is valid JSON, and
// canonicalizing it again returns the same bytes. Plain go test runs
// the seeds.
func FuzzCanonicalJSON(f *testing.F) {
	// All but the two 20 KB nesting-depth cases, which would slow every
	// mutation.
	for _, doc := range canonicalEdgeCases[:len(canonicalEdgeCases)-2] {
		f.Add([]byte(doc))
	}
	f.Add([]byte(`{"benchmarks":["gzip","twolf"],"refresh":[2e4,5e4],"prob_gates":[0.2,4e-1],"seed":7}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, err := CanonicalJSON(raw)
		if err != nil {
			return
		}
		if !json.Valid(got) {
			t.Fatalf("CanonicalJSON(%q) = %q, not valid JSON", raw, got)
		}
		again, err := CanonicalJSON(got)
		if err != nil || !bytes.Equal(again, got) {
			t.Fatalf("CanonicalJSON(%q) = %q, but canonicalizing that gives %q, %v", raw, got, again, err)
		}
	})
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"paco/internal/campaign"
	"paco/internal/scenario"
	"paco/internal/session"
	"paco/internal/trace"
	"paco/internal/workload"
)

// Every input below is a pure function of (seed, index): the same seed
// gives byte-identical specs and streams, and input i does not depend on
// how many inputs a run consumed before it.

// Sweep grids keep each cell short (20k measured instructions) so the
// server's admission and lease overhead is a visible share of a job.
const (
	gridInstructions = 20_000
	gridWarmup       = 5_000
)

var (
	gridRefresh = []uint64{10_000, 20_000, 50_000, 100_000}
	gridGates   = []float64{0.1, 0.2, 0.3, 0.4, 0.5}
)

// fuzzPool is how many fixed fuzz specs the scenario grids deal from.
const fuzzPool = 6

// sweepGrid is fill-pass grid i. Two grids in three share streams: two
// benchmarks × two refresh periods × two gates, eight cells that plan
// into two batch units of four. The third grid is four fuzzed scenarios
// at one refresh period, four singleton units. Benchmark pairs, refresh
// periods, gates and fuzz specs are dealt round-robin from seeded
// permutations, so every run covers each choice equally often: the
// seed changes the order, which choices meet in one grid and every
// grid's workload seed, not the mix. A job waits for its slower shard,
// so a fixed pairing keeps the job-latency mix the same at every seed. The workload seed also keeps every grid's content address
// distinct.
func sweepGrid(seed int64, i int) campaign.Grid {
	deal := func(k uint64, n, at int) int { return permutation(splitmix(seed, 1<<40+k), n)[at%n] }
	g := campaign.Grid{
		Instructions: gridInstructions,
		Warmup:       gridWarmup,
		Seed:         splitmix(seed, uint64(i))>>1 | 1,
	}
	if gridKind(i) == "fuzz" {
		g.Fuzz = &scenario.FuzzSpec{Seed: uint64(1 + deal(0, fuzzPool, i/3)), Count: 4}
		g.Refresh = []uint64{gridRefresh[deal(1, len(gridRefresh), i/3)]}
		return g
	}
	names := workload.BenchmarkNames
	j := i/3*2 + i%3 // stream grids before this one
	ra := deal(2, len(gridRefresh), j)
	ga := deal(3, len(gridGates), j)
	q := deal(4, len(names)/2, j) // benchmarks pair up as they are listed
	g.Benchmarks = []string{names[2*q], names[2*q+1]}
	g.Refresh = []uint64{gridRefresh[ra], gridRefresh[(ra+1)%len(gridRefresh)]}
	g.ProbGates = []float64{gridGates[ga], gridGates[(ga+2)%len(gridGates)]}
	return g
}

// gridKind names the shape of grid i.
func gridKind(i int) string {
	if i%3 == 2 {
		return "fuzz"
	}
	return "stream"
}

// sweepSpec is the JSON body a client POSTs for grid i.
func sweepSpec(seed int64, i int) []byte {
	b, err := json.Marshal(sweepGrid(seed, i))
	if err != nil {
		panic(err) // a Grid of plain fields always marshals
	}
	return b
}

// Session inputs. A run cycles through sessionInputs streams; every
// block of eight covers each combination of the three properties the
// session path's cost depends on exactly once, in a seeded order, so
// the traffic mix is the same at every seed and only content and order
// vary.
const (
	sessionInputs  = 16
	sessionEvents  = 12_000
	smallChunk     = 2 << 10
	largeChunk     = 64 << 10
	scoresEvery    = 4 // one GET scores per this many ingest chunks
	estimatorsLean = "paco,count"
	estimatorsFull = "paco,static,perbranch,count"
)

// sessionInput is one stream a session client sends.
type sessionInput struct {
	Binary    bool
	Chunk     int
	Spec      session.Spec
	SpecJSON  []byte
	Events    int
	Payload   []byte // wire bytes: trace frames or NDJSON lines
	Want      []byte // DELETE body offline replay predicts
	Estimator string
}

// kind names the input's combination of the properties the plan varies.
func (in sessionInput) kind() string {
	return fmt.Sprintf("%s/%d/%s", in.contentType(), in.Chunk, in.Estimator)
}

func (in sessionInput) contentType() string {
	if in.Binary {
		return "application/octet-stream"
	}
	return "application/x-ndjson"
}

// sessionPlan builds the run's session inputs, each with the final
// scores document offline session.Replay produces for it.
func sessionPlan(seed int64, n int) ([]sessionInput, error) {
	out := make([]sessionInput, n)
	for block := 0; block*8 < n; block++ {
		perm := permutation(splitmix(seed, uint64(1000+block)), 8)
		for j := 0; j < 8 && block*8+j < n; j++ {
			i := block*8 + j
			combo := perm[j]
			in, err := buildSessionInput(int64(splitmix(seed, uint64(i))>>1), combo&1 != 0, combo&2 != 0, combo&4 != 0)
			if err != nil {
				return nil, fmt.Errorf("session input %d: %w", i, err)
			}
			out[i] = in
		}
	}
	return out, nil
}

// permutation is a seeded Fisher–Yates shuffle of 0..n-1.
func permutation(seed uint64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(splitmix(int64(seed), uint64(i)) % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func buildSessionInput(eventSeed int64, binary, small, full bool) (sessionInput, error) {
	in := sessionInput{Binary: binary, Chunk: largeChunk, Events: sessionEvents, Estimator: estimatorsLean}
	if small {
		in.Chunk = smallChunk
	}
	if full {
		in.Estimator = estimatorsFull
	}
	spec, err := session.ParseEstimators(in.Estimator, 0, 0)
	if err != nil {
		return in, err
	}
	in.Spec = spec
	if in.SpecJSON, err = json.Marshal(spec); err != nil {
		return in, err
	}
	evs := session.SyntheticEvents(eventSeed, sessionEvents)
	var bin bytes.Buffer
	w, err := trace.NewWriter(&bin)
	if err != nil {
		return in, err
	}
	for _, ev := range evs {
		if err := w.Write(ev); err != nil {
			return in, err
		}
	}
	if err := w.Flush(); err != nil {
		return in, err
	}
	if binary {
		in.Payload = bin.Bytes()
	} else {
		var nd bytes.Buffer
		for _, ev := range evs {
			line, err := session.MarshalNDJSON(ev)
			if err != nil {
				return in, err
			}
			nd.Write(line)
		}
		in.Payload = nd.Bytes()
	}
	rd, err := trace.NewReader(bytes.NewReader(bin.Bytes()))
	if err != nil {
		return in, err
	}
	final, err := session.Replay(rd, spec)
	if err != nil {
		return in, err
	}
	// The server renders final scores with an indenting encoder and a
	// trailing newline.
	if in.Want, err = json.MarshalIndent(final, "", "  "); err != nil {
		return in, err
	}
	in.Want = append(in.Want, '\n')
	return in, nil
}

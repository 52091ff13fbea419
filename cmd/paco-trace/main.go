// Command paco-trace records branch-event traces from the bundled
// simulator, replays them against any of the path confidence
// estimators, and streams them into a live paco-serve estimator
// session — decoupling estimator research from simulation cost.
//
// Usage:
//
//	paco-trace record -bench gzip -instructions 1000000 -o gzip.trace
//	paco-trace record -scenario interpreter -o interp.trace
//	paco-trace record -scenario myworkload.json -o custom.trace
//	paco-trace record -fuzz 42 -o fuzzed.trace
//	paco-trace replay -i gzip.trace -estimator paco
//	paco-trace replay -i gzip.trace -estimator count -threshold 3
//	paco-trace replay -i gzip.trace -estimators paco,count -scores
//	paco-trace stream -i gzip.trace -server http://localhost:8344
//
// Estimators: paco, static, perbranch, count.
//
// A scenario-driven recording (-scenario or -fuzz) stamps the
// scenario's canonical content hash into the trace header, so the
// stream carries provenance: replay prints the hash, and any scenario
// document that canonicalizes to the same bytes names the same
// workload.
//
// `replay -scores` prints the session scores document — the exact
// bytes DELETE /v1/sessions/{id} returns for the same event stream —
// so `stream` output and offline replay are byte-diffable:
//
//	paco-trace stream -i t.trace -estimators paco,count > live.json
//	paco-trace replay -i t.trace -estimators paco,count -scores > off.json
//	cmp live.json off.json
package main

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"paco/internal/core"
	"paco/internal/cpu"
	"paco/internal/scenario"
	"paco/internal/session"
	"paco/internal/trace"
	"paco/internal/version"
	"paco/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command behind main, returning its exit status: 0 on
// success or -h, 2 on a usage or flag error (the flag package's
// convention), 1 when the subcommand fails.
func run(args []string, stdout, stderr io.Writer) int {
	var cmd func(args []string, stdout, stderr io.Writer) error
	switch {
	case len(args) == 0:
	case args[0] == "record":
		cmd = record
	case args[0] == "replay":
		cmd = replay
	case args[0] == "stream":
		cmd = stream
	case args[0] == "-version" || args[0] == "--version":
		version.Fprint(stdout, "paco-trace")
		return 0
	}
	if cmd == nil {
		fmt.Fprintln(stderr, "usage: paco-trace record|replay|stream [flags]")
		return 2
	}
	switch err := cmd(args[1:], stdout, stderr); {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errFlags):
		return 2
	default:
		fmt.Fprintln(stderr, "paco-trace:", err)
		return 1
	}
}

// errFlags marks a subcommand's flag-parsing error, which its flag set
// has already reported on stderr.
var errFlags = errors.New("bad flags")

func record(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "gzip", "benchmark model to trace")
	scn := fs.String("scenario", "", "scenario family or .json file to trace instead of -bench")
	fuzz := fs.Uint64("fuzz", 0, "trace a deterministically fuzzed scenario from this seed instead of -bench")
	instructions := fs.Uint64("instructions", 500_000, "goodpath instructions to record")
	warmup := fs.Uint64("warmup", 100_000, "warmup instructions before recording")
	out := fs.String("o", "paco.trace", "output trace file")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errFlags, err)
	}

	var (
		spec       *workload.Spec
		provenance [32]byte
		err        error
	)
	benchExplicit, fuzzExplicit := false, false
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "bench":
			benchExplicit = true
		case "fuzz":
			fuzzExplicit = true
		}
	})
	sources := 0
	for _, set := range []bool{benchExplicit, *scn != "", fuzzExplicit} {
		if set {
			sources++
		}
	}
	if sources > 1 {
		return fmt.Errorf("-bench, -scenario, and -fuzz are mutually exclusive")
	}
	switch {
	case *scn != "":
		scs, err := scenario.ParseArg(*scn)
		if err != nil {
			return err
		}
		if len(scs) != 1 {
			return fmt.Errorf("record traces one scenario, %s holds %d", *scn, len(scs))
		}
		if spec, err = scs[0].Compile(); err != nil {
			return err
		}
		if provenance, err = scs[0].Hash(); err != nil {
			return err
		}
	case fuzzExplicit:
		// The same seed always samples the same scenario document, so a
		// fuzzed recording is as reproducible as a named one; the
		// provenance hash identifies which document the seed produced.
		sc := scenario.NewFuzzer(*fuzz).Next()
		if spec, err = sc.Compile(); err != nil {
			return err
		}
		if provenance, err = sc.Hash(); err != nil {
			return err
		}
	default:
		if spec, err = workload.NewBenchmark(*bench); err != nil {
			return err
		}
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := trace.NewWriterProvenance(f, provenance)
	if err != nil {
		return err
	}
	rec := trace.NewRecorder(w)

	c, err := cpu.New(cpu.DefaultConfig())
	if err != nil {
		return err
	}
	if _, err := c.AddThread(spec, []core.Estimator{rec}); err != nil {
		return err
	}
	c.Run(*warmup, 0)
	// Recording starts after warmup: reset the recorder's tag space is
	// not needed (tags only need uniqueness), just keep going.
	c.Run(*instructions, 0)
	if rec.Err() != nil {
		return rec.Err()
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "recorded %d events from %s to %s\n", w.Events(), spec.Name, *out)
	if provenance != ([32]byte{}) {
		fmt.Fprintf(stdout, "scenario hash %s\n", hex.EncodeToString(provenance[:]))
	}
	return nil
}

func replay(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("i", "paco.trace", "input trace file")
	estName := fs.String("estimator", "paco", "paco|static|perbranch|count")
	estList := fs.String("estimators", "", "comma-separated estimator set for -scores mode (implies -scores)")
	scores := fs.Bool("scores", false, "print the session scores JSON document to stdout (byte-identical to the stream subcommand's final output for the same events)")
	threshold := fs.Uint("threshold", 3, "JRS threshold for -estimator count")
	refresh := fs.Uint64("refresh", core.DefaultRefreshPeriod, "PaCo MRT refresh period")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errFlags, err)
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}

	if *scores || *estList != "" {
		// Session mode: replay through the same estimator-session engine
		// the /v1/sessions surface runs, and keep stdout pure JSON —
		// provenance goes to stderr so the document stays diffable.
		list := *estList
		if list == "" {
			list = *estName
		}
		spec, err := session.ParseEstimators(list, *refresh, uint32(*threshold))
		if err != nil {
			return err
		}
		if prov := r.Provenance(); prov != ([32]byte{}) {
			fmt.Fprintf(stderr, "scenario hash %s\n", hex.EncodeToString(prov[:]))
		}
		sc, err := session.Replay(r, spec)
		if err != nil {
			return err
		}
		out, err := json.MarshalIndent(sc, "", "  ")
		if err != nil {
			return err
		}
		_, err = stdout.Write(append(out, '\n'))
		return err
	}

	var est core.Estimator
	switch *estName {
	case "paco":
		est = core.NewPaCo(core.PaCoConfig{RefreshPeriod: *refresh})
	case "static":
		est = core.NewStaticMRT(nil)
	case "perbranch":
		est = core.NewPerBranchMRT(core.DefaultPerBranchEntries)
	case "count":
		est = core.NewCountPredictor(uint32(*threshold))
	default:
		return fmt.Errorf("unknown estimator %q", *estName)
	}
	if prov := r.Provenance(); prov != ([32]byte{}) {
		fmt.Fprintf(stdout, "scenario hash %s\n", hex.EncodeToString(prov[:]))
	}
	st, err := trace.Replay(r, []core.Estimator{est})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "replayed: %d fetches, %d resolves, %d squashes, %d retires, %d cycles\n",
		st.Fetches, st.Resolves, st.Squashes, st.Retires, st.Cycles)
	switch e := est.(type) {
	case core.Probabilistic:
		fmt.Fprintf(stdout, "final encoded sum %d (P(goodpath) %.3f)\n", e.EncodedSum(), e.GoodpathProb())
	case *core.CountPredictor:
		fmt.Fprintf(stdout, "final low-confidence count %d\n", e.Count())
	}
	return nil
}

// stream pushes a recorded trace into a live paco-serve estimator
// session through session.Client: open, POST the raw trace bytes in
// chunks (the server's incremental decoder accepts splits anywhere,
// even mid-record; a 429 resends the identical chunk after Retry-After),
// and close. The final scores document, the DELETE response, goes to
// stdout verbatim, so it byte-compares against `replay -scores`;
// rolling progress goes to stderr.
func stream(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("stream", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("i", "paco.trace", "input trace file")
	server := fs.String("server", "http://localhost:8344", "paco-serve base URL")
	estList := fs.String("estimators", "paco", "comma-separated estimator kinds (paco, static, perbranch, count)")
	threshold := fs.Uint("threshold", 3, "JRS threshold for count estimators")
	refresh := fs.Uint64("refresh", core.DefaultRefreshPeriod, "PaCo MRT refresh period")
	chunkSize := fs.Int("chunk", 64<<10, "ingest chunk size in bytes")
	rate := fs.Float64("rate", 0, "pace ingest at this many events/sec (0 = as fast as the server accepts)")
	interval := fs.Duration("interval", time.Second, "rolling score report period on stderr (0 disables)")
	retryBudget := fs.Int("retry-budget", session.DefaultRetryBudget, "abort after this many total 429 backpressure retries (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errFlags, err)
	}

	if *chunkSize <= 0 {
		return fmt.Errorf("-chunk must be positive, got %d", *chunkSize)
	}
	raw, err := os.ReadFile(*in)
	if err != nil {
		return err
	}

	spec, err := session.ParseEstimators(*estList, *refresh, uint32(*threshold))
	if err != nil {
		return err
	}
	c := session.NewClient(*server)
	c.RetryBudget = *retryBudget
	if c.RetryBudget == 0 {
		c.RetryBudget = -1 // the flag's "unlimited"
	}
	opened, err := c.Open(spec)
	if err != nil {
		return err
	}
	owner := ""
	if opened.Worker != "" {
		// A routing coordinator names the owning worker; scripts killing
		// workers mid-stream (the CI failover smoke) grep this line.
		owner = " on worker " + opened.Worker
	}
	fmt.Fprintf(stderr, "session %s (key %.12s…)%s: streaming %d bytes from %s\n",
		opened.ID, opened.Key, owner, len(raw), *in)

	var (
		start     = time.Now()
		lastPrint = start
		accepted  int
		chunks    int
		st        = c.Stream(opened.ID, session.FormatBinary)
	)
	for off := 0; off < len(raw); {
		end := min(off+*chunkSize, len(raw))
		n, err := st.PostChunk(raw[off:end])
		if err != nil {
			return fmt.Errorf("chunk at offset %d: %w", off, err)
		}
		accepted += n
		off = end
		chunks++

		if *rate > 0 {
			// Pace on acknowledged events: sleep until wall time catches
			// up with accepted/rate.
			due := start.Add(time.Duration(float64(accepted) / *rate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
		}
		if *interval > 0 && time.Since(lastPrint) >= *interval {
			lastPrint = time.Now()
			printRolling(stderr, c, opened.ID, accepted)
		}
	}

	final, err := c.Close(opened.ID)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Fprintf(stderr, "streamed %d events in %d chunks (%d backpressure retries) in %v (%.0f events/sec)\n",
		accepted, chunks, st.Retries(), elapsed.Round(time.Millisecond),
		float64(accepted)/elapsed.Seconds())
	_, err = stdout.Write(final)
	return err
}

// printRolling reports one rolling-score line on w: the server-side
// snapshot next to the client's acknowledged-event count.
func printRolling(w io.Writer, c *session.Client, id string, sent int) {
	sc, err := c.Scores(id)
	if err != nil {
		return
	}
	line := fmt.Sprintf("sent %d: applied=%d queued=%d inflight=%d", sent, sc.Events, sc.Queued, sc.Inflight)
	for _, e := range sc.Estimators {
		switch {
		case e.PGoodpath != nil:
			line += fmt.Sprintf(" %s=%.3f", e.Kind, *e.PGoodpath)
		case e.LowConfidence != nil:
			line += fmt.Sprintf(" %s=%d", e.Kind, *e.LowConfidence)
		}
	}
	fmt.Fprintln(w, line)
}

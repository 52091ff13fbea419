package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"paco/internal/core"
	"paco/internal/session"
	"paco/internal/trace"
)

// sessions is a load generator for the estimator-session surface: open
// N sessions, stream deterministic synthetic branch events into each
// from -concurrency streamers through session.Client (one stream, with
// the client's default 429 retry budget, per session), close, and
// report throughput. Against a routing coordinator (-route-sessions)
// the opens spread across the federation, so it doubles as a
// routed-topology exerciser. With
// -verify each DELETE response is byte-compared against an offline
// session.Replay of the same events — the protocol's determinism
// contract, checked end to end over HTTP.
func sessions(base string, args []string) error {
	fs := flag.NewFlagSet("sessions", flag.ContinueOnError)
	count := fs.Int("sessions", 8, "sessions to open and stream")
	events := fs.Int("events", 5000, "synthetic branch events per session")
	chunk := fs.Int("chunk", 32<<10, "ingest chunk size in bytes")
	concurrency := fs.Int("concurrency", 4, "sessions streaming at once")
	estList := fs.String("estimators", "paco,count", "comma-separated estimator kinds for each session")
	seed := fs.Int64("seed", 1, "base seed; session i streams SyntheticEvents(seed+i)")
	verify := fs.Bool("verify", false, "byte-compare each final scores document against offline replay")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *count <= 0 || *events <= 0 || *chunk <= 0 || *concurrency <= 0 {
		return fmt.Errorf("-sessions, -events, -chunk, and -concurrency must all be positive")
	}

	spec, err := session.ParseEstimators(*estList, core.DefaultRefreshPeriod, 3)
	if err != nil {
		return err
	}

	// -concurrency streamers take the next session index until all
	// are done; each records its outcome in its own slot.
	type result struct {
		retries int
		worker  string
		err     error
	}
	var (
		c       = session.NewClient(base)
		results = make([]result, *count)
		next    atomic.Int64
		wg      sync.WaitGroup
	)
	start := time.Now()
	for range min(*concurrency, *count) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < *count; i = int(next.Add(1)) - 1 {
				r := &results[i]
				r.retries, r.worker, r.err = streamOneSession(c, spec, *seed+int64(i), *events, *chunk, *verify)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	failed, retries, byWorker := 0, 0, map[string]int{}
	for i, r := range results {
		retries += r.retries
		if r.worker != "" {
			byWorker[r.worker]++
		}
		if r.err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "sessions: session %d: %v\n", i, r.err)
		}
	}
	streamed := (*count - failed) * *events
	fmt.Printf("sessions: %d streamed (%d failed) in %v — %.1f sessions/sec, %.0f events/sec, %d backpressure retries\n",
		*count, failed, elapsed.Round(time.Millisecond),
		float64(*count)/elapsed.Seconds(), float64(streamed)/elapsed.Seconds(), retries)
	if len(byWorker) > 0 {
		fmt.Printf("  placement:")
		for w, n := range byWorker {
			fmt.Printf(" %s=%d", w, n)
		}
		fmt.Println()
	}
	if *verify {
		fmt.Printf("  verify: %d/%d finals byte-identical to offline replay\n", *count-failed, *count)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d sessions failed", failed, *count)
	}
	return nil
}

// streamOneSession drives one full session lifecycle through c: open,
// stream the seeded synthetic trace in chunks, close, and optionally
// verify the final scores against offline replay. Returns the 429
// retries spent and the owning worker (empty against a non-routing
// server).
func streamOneSession(c *session.Client, spec session.Spec, seed int64, events, chunkSize int, verify bool) (int, string, error) {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		return 0, "", err
	}
	for _, ev := range session.SyntheticEvents(seed, events) {
		if err := w.Write(ev); err != nil {
			return 0, "", err
		}
	}
	if err := w.Flush(); err != nil {
		return 0, "", err
	}
	raw := buf.Bytes()

	opened, err := c.Open(spec)
	if err != nil {
		return 0, "", err
	}
	st := c.Stream(opened.ID, session.FormatBinary)
	for off := 0; off < len(raw); off += chunkSize {
		end := min(off+chunkSize, len(raw))
		if _, err := st.PostChunk(raw[off:end]); err != nil {
			return st.Retries(), opened.Worker, err
		}
	}
	final, err := c.Close(opened.ID)
	if err == nil && verify {
		err = verifyFinal(final, raw, spec)
	}
	return st.Retries(), opened.Worker, err
}

// verifyFinal byte-compares a final scores document against offline
// replay of the trace bytes raw.
func verifyFinal(final, raw []byte, spec session.Spec) error {
	r, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	offline, err := session.Replay(r, spec)
	if err != nil {
		return err
	}
	want, err := json.MarshalIndent(offline, "", "  ")
	if err != nil {
		return err
	}
	if want = append(want, '\n'); !bytes.Equal(final, want) {
		return fmt.Errorf("final scores differ from offline replay:\n got %s\nwant %s", final, want)
	}
	return nil
}

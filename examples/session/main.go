// Example session is a minimal live-estimator-session client built on
// session.Client: it opens a session on a running paco-serve,
// subscribes to the /live SSE score stream, streams a synthetic
// branch-event workload as NDJSON chunks (the client retries a 429
// with the identical chunk), and closes the session to collect the
// final scores.
//
// Start a server first, then run the client:
//
//	go run ./cmd/paco-serve &
//	go run ./examples/session -addr http://localhost:8344
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"

	"paco/internal/session"
)

func main() {
	addr := flag.String("addr", "http://localhost:8344", "paco-serve base URL")
	branches := flag.Int("branches", 8000, "synthetic branch events to stream")
	chunk := flag.Int("chunk", 200, "events per ingest chunk")
	flag.Parse()

	// Open a session: PaCo next to the count baseline, so the live
	// stream shows both scores evolving over the same events.
	c := session.NewClient(*addr)
	opened, err := c.Open(session.Spec{Estimators: []session.EstimatorSpec{
		{Kind: session.KindPaCo},
		{Kind: session.KindCount, Threshold: 3},
	}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session %s (key %.12s…)\n", opened.ID, opened.Key)

	// Subscribe to the live score stream before ingesting anything; the
	// stream opens with the current snapshot, coalesces to the latest
	// scores after each server-side drain, and ends with a "final" event
	// once the session closes.
	live, err := c.Live(opened.ID)
	if err != nil {
		log.Fatal(err)
	}
	defer live.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for event, data := range session.Frames(live) {
			fmt.Printf("  [%s] %s\n", event, data)
		}
	}()

	// Stream a synthetic workload (real clients replay paco-trace
	// recordings instead; see `paco-trace stream`) as NDJSON chunks. A
	// 429 means the session's queue is over its high-water mark and the
	// chunk was NOT consumed: PostChunk waits out Retry-After and resends
	// the identical bytes.
	events := session.SyntheticEvents(1, *branches)
	st := c.Stream(opened.ID, session.FormatNDJSON)
	for off := 0; off < len(events); off += *chunk {
		end := min(off+*chunk, len(events))
		var buf bytes.Buffer
		for _, ev := range events[off:end] {
			line, err := session.MarshalNDJSON(ev)
			if err != nil {
				log.Fatal(err)
			}
			buf.Write(line)
		}
		if _, err := st.PostChunk(buf.Bytes()); err != nil {
			log.Fatal(err)
		}
	}

	// Close: the server drains the queue, squashes in-flight branches,
	// and returns the final scores — the same document offline replay of
	// this event stream produces.
	raw, err := c.Close(opened.ID)
	if err != nil {
		log.Fatal(err)
	}
	var final session.Scores
	if err := json.Unmarshal(raw, &final); err != nil {
		log.Fatal(err)
	}
	<-done // the live stream ends after its "final" event

	fmt.Printf("final: %d events, %d retires, %d mispredicts\n",
		final.Events, final.Retires, final.Mispredict)
	for _, e := range final.Estimators {
		switch {
		case e.PGoodpath != nil:
			fmt.Printf("  %s: P(goodpath)=%.3f\n", e.Kind, *e.PGoodpath)
		case e.LowConfidence != nil:
			fmt.Printf("  %s: low-confidence count=%d\n", e.Kind, *e.LowConfidence)
		}
	}
}

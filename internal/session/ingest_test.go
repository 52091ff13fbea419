package session

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"testing"

	"paco/internal/trace"
)

// TestSessionApplyAllocs pins the apply path at zero allocations once
// the in-flight table has grown to the stream's high-water mark: a
// fetch fills a slab row, a resolve or squash frees one, and retires and
// cycles only touch estimator state. Replaying the same stream again
// reuses its tags, as a long-lived session's client does.
func TestSessionApplyAllocs(t *testing.T) {
	evs := genEvents(7, 12000)
	s, err := New(allKindsSpec())
	if err != nil {
		t.Fatal(err)
	}
	apply := func() {
		for _, ev := range evs {
			if err := s.Apply(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply()
	if allocs := testing.AllocsPerRun(5, apply); allocs != 0 {
		t.Fatalf("steady-state Apply allocated %v times per %d events, want 0", allocs, len(evs))
	}
}

// TestSessionLifetimeAllocs bounds a whole 12k-event session — open,
// apply, close — at under 100 allocations: the estimators' tables, the
// slab's growth to the stream's in-flight peak, and the final scores.
// A per-fetch allocation would cost thousands.
func TestSessionLifetimeAllocs(t *testing.T) {
	evs := genEvents(7, 12000)
	allocs := testing.AllocsPerRun(3, func() {
		s, err := New(allKindsSpec())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ApplyAll(evs); err != nil {
			t.Fatal(err)
		}
		s.Close()
	})
	if allocs >= 100 {
		t.Fatalf("a %d-event session made %v allocations, want fewer than 100", len(evs), allocs)
	}
	t.Logf("a %d-event session: %v allocations", len(evs), allocs)
}

// pausedTable returns a table whose shard workers and sweeper have
// stopped, so ingested events stay queued until the test drains a
// shard or closes a session itself. Its sessions must be opened and
// closed by the test; Shutdown would stop the workers twice.
func pausedTable(cfg TableConfig) *Table {
	tbl := NewTable(cfg)
	close(tbl.stop)
	tbl.wg.Wait()
	return tbl
}

// ingestLoop returns a function that streams raw's records into one
// session of tbl, in chunks of chunkSize bytes cut mid-record, draining
// the shard after each chunk so the queue's buffer goes back to the
// pool as the worker returns it. Stream tags repeat on every pass, as
// in TestSessionApplyAllocs.
func ingestLoop(tb testing.TB, tbl *Table, raw []byte, chunkSize int) func() {
	id, _, _, err := tbl.Open(allKindsSpec(), "")
	if err != nil {
		tb.Fatal(err)
	}
	hdr := 8 + 32 // v2 header
	if _, _, err := tbl.Ingest(id, FormatBinary, raw[:hdr]); err != nil {
		tb.Fatal(err)
	}
	records := raw[hdr:]
	sh := tbl.shardFor(id)
	return func() {
		for off := 0; off < len(records); off += chunkSize {
			if _, _, err := tbl.Ingest(id, FormatBinary, records[off:min(off+chunkSize, len(records))]); err != nil {
				tb.Fatal(err)
			}
			sh.drain()
		}
	}
}

// TestTableIngestAllocs pins binary ingest at zero allocations in
// steady state: the chunk is decoded in place onto a pooled queue, the
// queue is applied in one pass and its buffer returned.
func TestTableIngestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	raw := serialize(t, genEvents(11, 12000))
	loop := ingestLoop(t, pausedTable(TableConfig{Shards: 1}), raw, 2047)
	loop()
	if allocs := testing.AllocsPerRun(5, loop); allocs != 0 {
		t.Fatalf("steady-state binary ingest allocated %v times per pass, want 0", allocs)
	}
}

// TestTableRejectionTruncatesQueue rejects a chunk — by backpressure
// and by a decode error, in both formats — while two earlier chunks
// still sit unapplied in the session's queue. The queue must come back
// to exactly what it held before the rejected chunk: the earlier
// events, once each, and nothing of the rejected one. After a drain,
// resending the chunk (identical bytes after backpressure, corrected
// bytes after the decode error) yields finals byte-identical to offline
// replay.
func TestTableRejectionTruncatesQueue(t *testing.T) {
	evs := genEvents(31, 900)
	raw := serialize(t, evs)
	r, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	offline, err := Replay(r, allKindsSpec())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(offline)
	if err != nil {
		t.Fatal(err)
	}
	doc := ndjsonDoc(t, evs)
	// start returns the offset at which event i begins in each stream.
	start := map[Format]func(i int) int{
		FormatBinary: func(i int) int { return len(raw) - (len(evs)-i)*23 },
		FormatNDJSON: func(i int) int {
			off := 0
			for ; i > 0; i-- {
				off += bytes.IndexByte(doc[off:], '\n') + 1
			}
			return off
		},
	}
	streams := map[Format][]byte{FormatBinary: raw, FormatNDJSON: doc}
	bad := map[Format]byte{FormatBinary: 0x7f, FormatNDJSON: 'x'}

	for _, format := range []Format{FormatBinary, FormatNDJSON} {
		for _, reject := range []string{"backpressure", "decode"} {
			t.Run(string(format)+"/"+reject, func(t *testing.T) {
				stream := streams[format]
				// The cap admits the first two chunks (300 events)
				// but not a third of 300 while they are queued.
				tbl := pausedTable(TableConfig{Shards: 1, MaxQueuedEvents: 400})
				id, _, _, err := tbl.Open(allKindsSpec(), "")
				if err != nil {
					t.Fatal(err)
				}
				sh := tbl.shardFor(id)
				e := sh.sessions[id]
				// Chunk boundaries fall 3 bytes into an event.
				a, b, c := start[format](100)+3, start[format](300)+3, start[format](600)+3
				for _, chunk := range [][]byte{stream[:a], stream[a:b]} {
					if _, _, err := tbl.Ingest(id, format, chunk); err != nil {
						t.Fatal(err)
					}
				}
				third := stream[b:c]
				if reject == "decode" {
					third = append([]byte(nil), third...)
					third[start[format](450)-b] = bad[format]
				}
				n, queued, err := tbl.Ingest(id, format, third)
				var bp *BackpressureError
				if n != 0 || err == nil || errors.As(err, &bp) != (reject == "backpressure") {
					t.Fatalf("third chunk: accepted %d, err %v; want a %s rejection", n, err, reject)
				}
				if queued != 300 || e.queue == nil || !slices.Equal(e.queue.evs, evs[:300]) {
					t.Fatalf("queue after the rejection: depth %d (reported %d), want exactly the 300 earlier events", e.queued(), queued)
				}

				for _, chunk := range [][]byte{stream[b:c], stream[c:]} {
					sh.drain()
					if _, _, err := tbl.Ingest(id, format, chunk); err != nil {
						t.Fatalf("resend: %v", err)
					}
				}
				final, err := tbl.Close(id, CloseClient)
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(final)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("finals after the rejection diverge from offline replay:\n table   %s\n offline %s", got, want)
				}
			})
		}
	}
}

// BenchmarkSessionApply is the apply layer alone: one session over a
// 12k-event synthetic stream, all four estimator kinds.
func BenchmarkSessionApply(b *testing.B) {
	evs := genEvents(7, 12000)
	s, err := New(allKindsSpec())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.ApplyAll(evs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*len(evs))/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkTableIngest is binary ingest through the table — decode onto
// the pooled queue, then the shard's drain — in 2 KiB chunks cut
// mid-record.
func BenchmarkTableIngest(b *testing.B) {
	evs := genEvents(11, 12000)
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		b.Fatal(err)
	}
	for _, ev := range evs {
		if err := w.Write(ev); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	loop := ingestLoop(b, pausedTable(TableConfig{Shards: 1}), buf.Bytes(), 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loop()
	}
	b.ReportMetric(float64(b.N*len(evs))/b.Elapsed().Seconds(), "events/s")
}

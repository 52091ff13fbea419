package session

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paco/internal/trace"
)

// fakeClock is an injectable time source for deterministic TTL tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestTable(t *testing.T, cfg TableConfig) *Table {
	t.Helper()
	tbl := NewTable(cfg)
	t.Cleanup(tbl.Shutdown)
	return tbl
}

// waitScores polls until cond holds on the session's scores (the worker
// applies asynchronously).
func waitScores(t *testing.T, tbl *Table, id string, cond func(Scores) bool) Scores {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		sc, err := tbl.Scores(id)
		if err != nil {
			t.Fatalf("Scores(%s): %v", id, err)
		}
		if cond(sc) {
			return sc
		}
		if time.Now().After(deadline) {
			t.Fatalf("condition never held; last scores %+v", sc)
		}
		time.Sleep(time.Millisecond)
	}
}

func ndjsonDoc(t *testing.T, evs []trace.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, ev := range evs {
		line, err := MarshalNDJSON(ev)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
	}
	return buf.Bytes()
}

// TestTableStreamingMatchesOffline streams a binary trace through the
// full table path (chunked ingest, worker apply, close) and requires the
// final scores to equal offline Replay — the tentpole determinism
// contract at the table layer.
func TestTableStreamingMatchesOffline(t *testing.T) {
	raw := serialize(t, genEvents(3, 4000))
	spec := allKindsSpec()

	r, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	offline, err := Replay(r, spec)
	if err != nil {
		t.Fatal(err)
	}

	tbl := newTestTable(t, TableConfig{Shards: 4})
	id, _, _, err := tbl.Open(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(raw); off += 100 {
		end := off + 100
		if end > len(raw) {
			end = len(raw)
		}
		if _, _, err := tbl.Ingest(id, FormatBinary, raw[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	final, err := tbl.Close(id, CloseClient)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(final, offline) {
		t.Fatalf("table-streamed scores diverge from offline replay:\n table   %+v\n offline %+v", final, offline)
	}
}

// TestTableBackpressureLossless forces rejections against a backed-up
// queue (white-box: the queue depth is pinned so the test is
// deterministic), confirms rejected chunks carry *BackpressureError
// with a retry hint and roll the decoder back, then retries the
// identical bytes and requires the final scores to match an
// unthrottled replay — acknowledged events are never lost, rejected
// ones never half-consumed.
func TestTableBackpressureLossless(t *testing.T) {
	raw := serialize(t, genEvents(5, 2000))
	spec := Spec{}

	r, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	offline, err := Replay(r, spec)
	if err != nil {
		t.Fatal(err)
	}

	tbl := newTestTable(t, TableConfig{Shards: 1, MaxQueuedEvents: 64, RetryAfter: time.Millisecond})
	id, _, _, err := tbl.Open(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	sh := tbl.shardFor(id)

	// pin/unpin simulate a worker that has not drained yet: with a
	// nonzero queue depth at the cap, any further chunk must bounce.
	pin := func() {
		sh.mu.Lock()
		sh.sessions[id].nqueued = tbl.maxQueued
		sh.mu.Unlock()
	}
	unpin := func() {
		sh.mu.Lock()
		sh.sessions[id].nqueued = 0
		sh.mu.Unlock()
	}

	rejections := 0
	const chunkSize = 997 // odd size: chunks split records mid-byte
	for off := 0; off < len(raw); {
		end := off + chunkSize
		if end > len(raw) {
			end = len(raw)
		}
		if rejections < 5 { // bounce every chunk attempt a few times first
			pin()
			_, _, err := tbl.Ingest(id, FormatBinary, raw[off:end])
			unpin()
			var bp *BackpressureError
			if !errors.As(err, &bp) {
				t.Fatalf("full queue accepted a chunk: %v", err)
			}
			if bp.RetryAfter <= 0 || bp.Limit != tbl.maxQueued {
				t.Fatalf("backpressure error malformed: %+v", bp)
			}
			rejections++
			continue // retry the identical bytes
		}
		_, _, err := tbl.Ingest(id, FormatBinary, raw[off:end])
		var bp *BackpressureError
		if errors.As(err, &bp) { // organic congestion: worker hasn't drained yet
			rejections++
			time.Sleep(bp.RetryAfter)
			continue // retry the identical bytes
		}
		if err != nil {
			t.Fatal(err)
		}
		off = end
	}
	if rejections < 5 {
		t.Fatalf("only %d rejections exercised", rejections)
	}
	final, err := tbl.Close(id, CloseClient)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(final, offline) {
		t.Fatalf("throttled stream diverged from offline replay:\n table   %+v\n offline %+v", final, offline)
	}
}

// TestTableRejectedChunkRollsBack: a chunk holding valid events ahead of
// a bad one is rejected whole, in both formats — no event from it is
// queued and the stream state (binary decoder, NDJSON partial line)
// stays where the previous chunk left it — so resending the corrected
// bytes yields finals byte-identical to offline replay of the corrected
// stream. Router failover depends on this: its journal holds only
// acknowledged chunks.
func TestTableRejectedChunkRollsBack(t *testing.T) {
	evs := genEvents(29, 600)
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

	// Each format's stream bytes, the offset where each event starts,
	// and a byte that makes the event at that offset undecodable.
	hdr := len(serialize(t, nil))
	binOff := make([]int, len(evs))
	for i := range binOff {
		binOff[i] = hdr + i*(len(raw)-hdr)/len(evs)
	}
	doc := ndjsonDoc(t, evs)
	ndOff := make([]int, len(evs))
	for i, off := 1, 0; i < len(evs); i++ {
		off += bytes.IndexByte(doc[off:], '\n') + 1
		ndOff[i] = off
	}
	for _, tc := range []struct {
		format  Format
		stream  []byte
		offsets []int
		bad     byte
	}{
		{FormatBinary, raw, binOff, 0x7f}, // no such event kind
		{FormatNDJSON, doc, ndOff, 'x'},   // not JSON
	} {
		t.Run(string(tc.format), func(t *testing.T) {
			tbl := newTestTable(t, TableConfig{Shards: 1})
			id, _, _, err := tbl.Open(allKindsSpec(), "")
			if err != nil {
				t.Fatal(err)
			}
			// Chunk boundaries fall mid-event, so the rejected chunk
			// starts and ends inside partial stream state.
			a, b := tc.offsets[100]+3, tc.offsets[200]+5
			if n, _, err := tbl.Ingest(id, tc.format, tc.stream[:a]); err != nil || n != 100 {
				t.Fatalf("first chunk: accepted %d, err %v; want 100", n, err)
			}
			corrupt := append([]byte(nil), tc.stream[a:b]...)
			corrupt[tc.offsets[150]-a] = tc.bad
			n, queued, err := tbl.Ingest(id, tc.format, corrupt)
			var bp *BackpressureError
			if err == nil || errors.As(err, &bp) || n != 0 {
				t.Fatalf("bad chunk: accepted %d, err %v; want a decode error with 0 accepted", n, err)
			}
			sc := waitScores(t, tbl, id, func(sc Scores) bool { return sc.Queued == 0 })
			if sc.Events != 100 || queued > 100 {
				t.Fatalf("after the rejected chunk: %d events applied, %d queued; want 100 and nothing from the bad chunk", sc.Events, queued)
			}
			for _, chunk := range [][]byte{tc.stream[a:b], tc.stream[b:]} {
				if _, _, err := tbl.Ingest(id, tc.format, chunk); err != nil {
					t.Fatalf("corrected resend: %v", err)
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
				t.Fatalf("finals after a rejected chunk diverge from offline replay:\n table   %s\n offline %s", got, want)
			}
		})
	}
}

func TestTableCapsAndNotFound(t *testing.T) {
	tbl := newTestTable(t, TableConfig{MaxSessions: 2})
	a, _, _, err := tbl.Open(Spec{}, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := tbl.Open(Spec{}, ""); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := tbl.Open(Spec{}, ""); !errors.Is(err, ErrTableFull) {
		t.Fatalf("third open = %v, want ErrTableFull", err)
	}
	if _, err := tbl.Close(a, CloseClient); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := tbl.Open(Spec{}, ""); err != nil {
		t.Fatalf("open after close = %v, want free slot", err)
	}
	if _, _, err := tbl.Ingest("s-nope-000001", FormatBinary, nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ingest unknown = %v", err)
	}
	if _, err := tbl.Scores("s-nope-000001"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("scores unknown = %v", err)
	}
	var gone *GoneError
	if _, err := tbl.Close(a, CloseClient); !errors.As(err, &gone) || gone.Reason != CloseClient {
		t.Fatalf("double close = %v, want *GoneError(client)", err)
	}
}

func TestTableFormatLock(t *testing.T) {
	tbl := newTestTable(t, TableConfig{})
	id, _, _, err := tbl.Open(Spec{}, "")
	if err != nil {
		t.Fatal(err)
	}
	doc := ndjsonDoc(t, []trace.Event{{Kind: trace.EvCycle, PC: 64}})
	if _, _, err := tbl.Ingest(id, FormatNDJSON, doc); err != nil {
		t.Fatal(err)
	}
	_, _, err = tbl.Ingest(id, FormatBinary, []byte{1, 2, 3})
	var fe *FormatError
	if !errors.As(err, &fe) || fe.Have != FormatNDJSON || fe.Got != FormatBinary {
		t.Fatalf("format switch = %v, want *FormatError(ndjson, binary)", err)
	}
}

// TestTableEviction drives the TTL sweep off a fake clock: an idle
// session evicts, an ingesting session's clock renews, and eviction
// applies queued events before closing.
func TestTableEviction(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	tbl := newTestTable(t, TableConfig{
		IdleTTL:       time.Minute,
		SweepInterval: time.Millisecond,
		Now:           clock.now,
	})
	idle, _, _, err := tbl.Open(Spec{}, "")
	if err != nil {
		t.Fatal(err)
	}
	busy, _, _, err := tbl.Open(Spec{}, "")
	if err != nil {
		t.Fatal(err)
	}
	doc := ndjsonDoc(t, []trace.Event{{Kind: trace.EvCycle, PC: 64}})

	// Renew the busy session every simulated 30s while the idle one
	// goes quiet for two TTLs.
	for i := 0; i < 4; i++ {
		clock.advance(30 * time.Second)
		if _, _, err := tbl.Ingest(busy, FormatNDJSON, doc); err != nil {
			t.Fatalf("renewing ingest at step %d: %v", i, err)
		}
		time.Sleep(5 * time.Millisecond) // let the sweeper see this instant
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := tbl.Scores(idle)
		var gone *GoneError
		if errors.As(err, &gone) && gone.Reason != CloseEvicted {
			t.Fatalf("idle session gone with reason %q, want %q", gone.Reason, CloseEvicted)
		}
		// GoneError while the tombstone lives, ErrNotFound once a later
		// sweep (the clock advanced a further TTL above) purges it.
		if err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle session never evicted")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := tbl.Scores(busy); err != nil {
		t.Fatalf("busy session evicted despite ingest renewals: %v", err)
	}
}

// TestTableSweepVsTouch pins the sweep-vs-touch ordering fix with a
// fully deterministic interleaving: a session listed as an eviction
// candidate and then touched before the sweep claims it must survive
// that sweep — under the old one-shot Expired sweep the listing itself
// removed the tracker entry, so the renewal was lost and the session
// evicted anyway.
func TestTableSweepVsTouch(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	tbl := newTestTable(t, TableConfig{
		IdleTTL:       time.Minute,
		SweepInterval: time.Hour, // only the manual sweeps below run
		Now:           clock.now,
	})
	touched, _, _, err := tbl.Open(Spec{}, "")
	if err != nil {
		t.Fatal(err)
	}
	idle, _, _, err := tbl.Open(Spec{}, "")
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1 of the sweep: both sessions are a TTL idle, so both are
	// candidates. The client's poll lands between the phases.
	clock.advance(time.Minute)
	now := clock.now()
	cands := tbl.tracker.Candidates(now)
	if len(cands) != 2 {
		t.Fatalf("candidates = %v, want both sessions", cands)
	}
	if _, err := tbl.Scores(touched); err != nil {
		t.Fatal(err)
	}

	// Phase 2: the claim must lose to the touch and take only the idle
	// session.
	tbl.evictExpired(cands, now)
	if _, err := tbl.Scores(touched); err != nil {
		t.Fatalf("session touched mid-sweep was evicted: %v", err)
	}
	var gone *GoneError
	if _, err := tbl.Scores(idle); !errors.As(err, &gone) || gone.Reason != CloseEvicted {
		t.Fatalf("idle session = %v, want *GoneError(evicted)", err)
	}

	// The renewal bought a full TTL, not forever.
	clock.advance(time.Minute)
	tbl.sweepOnce(clock.now())
	if _, err := tbl.Scores(touched); !errors.As(err, &gone) || gone.Reason != CloseEvicted {
		t.Fatalf("renewed session after a further TTL = %v, want *GoneError(evicted)", err)
	}
}

// TestTableTombstoneGone pins the closed-session error contract: every
// operation on a closed (but remembered) session reports *GoneError
// with the close reason, and the tombstone ages out after one TTL, after
// which the ID is indistinguishable from one the table never issued.
func TestTableTombstoneGone(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	tbl := newTestTable(t, TableConfig{
		IdleTTL:       time.Minute,
		SweepInterval: time.Hour,
		Now:           clock.now,
	})
	id, _, _, err := tbl.Open(Spec{}, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Close(id, CloseClient); err != nil {
		t.Fatal(err)
	}

	var gone *GoneError
	if _, _, err := tbl.Ingest(id, FormatNDJSON, nil); !errors.As(err, &gone) || gone.Reason != CloseClient {
		t.Fatalf("ingest after close = %v, want *GoneError(client)", err)
	}
	if _, err := tbl.Scores(id); !errors.As(err, &gone) || gone.Reason != CloseClient {
		t.Fatalf("scores after close = %v, want *GoneError(client)", err)
	}
	if _, _, err := tbl.Subscribe(id); !errors.As(err, &gone) || gone.Reason != CloseClient {
		t.Fatalf("subscribe after close = %v, want *GoneError(client)", err)
	}
	if _, err := tbl.Close(id, CloseClient); !errors.As(err, &gone) || gone.Reason != CloseClient {
		t.Fatalf("double close = %v, want *GoneError(client)", err)
	}

	// One TTL later the tombstone purges and the ID is simply unknown.
	clock.advance(time.Minute)
	tbl.sweepOnce(clock.now())
	if _, err := tbl.Scores(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("scores after tombstone purge = %v, want ErrNotFound", err)
	}
}

// TestTableSubscribe covers the live-score channel: a prime snapshot,
// an update after ingest, the final snapshot and close on session close,
// and early cancel racing close.
func TestTableSubscribe(t *testing.T) {
	tbl := newTestTable(t, TableConfig{})
	id, _, _, err := tbl.Open(Spec{}, "")
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := tbl.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	if sc := <-ch; sc.Events != 0 || sc.Final {
		t.Fatalf("prime snapshot = %+v", sc)
	}
	doc := ndjsonDoc(t, []trace.Event{
		{Kind: trace.EvFetch, Tag: 1, PC: 0x40, MDC: 2, Flags: 1},
		{Kind: trace.EvResolve, Tag: 1},
	})
	if _, _, err := tbl.Ingest(id, FormatNDJSON, doc); err != nil {
		t.Fatal(err)
	}
	var last Scores
	for sc := range ch {
		last = sc
		if sc.Final {
			break
		}
		if sc.Events == 2 {
			// Updates observed; now close and expect the final snapshot.
			go tbl.Close(id, CloseClient)
		}
	}
	if !last.Final || last.Events != 2 {
		t.Fatalf("final snapshot = %+v", last)
	}
	if _, ok := <-ch; ok {
		t.Fatal("channel not closed after final snapshot")
	}

	// cancel-after-close must not double-close (exercised by the
	// deferred cancel); subscribe on a gone session reports the close.
	var gone *GoneError
	if _, _, err := tbl.Subscribe(id); !errors.As(err, &gone) || gone.Reason != CloseClient {
		t.Fatalf("subscribe after close = %v, want *GoneError(client)", err)
	}
}

// TestTableConcurrentChaos hammers one table from many goroutines —
// opens, chunked ingests, score reads, subscribes, closes, evictions all
// racing — and then checks conservation: every session opened is
// eventually closed exactly once, and no queued events survive
// shutdown. Run under -race this is the expiry/renew/close race test
// the issue asks for.
func TestTableConcurrentChaos(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0)}
	tbl := NewTable(TableConfig{
		Shards:          4,
		MaxSessions:     64,
		MaxQueuedEvents: 256,
		IdleTTL:         50 * time.Millisecond,
		SweepInterval:   5 * time.Millisecond,
		RetryAfter:      time.Millisecond,
		Now:             clock.now,
	})
	raw := serialize(t, genEvents(9, 600))
	var opened, closedByUs atomic.Int64

	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				clock.advance(time.Millisecond) // drifts everyone toward eviction
				id, _, _, err := tbl.Open(Spec{}, "")
				if errors.Is(err, ErrTableFull) {
					continue
				}
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				opened.Add(1)
				if g%3 == 0 {
					if _, cancel, err := tbl.Subscribe(id); err == nil {
						defer cancel()
					}
				}
				evicted := false
				for off := 0; off < len(raw) && !evicted; {
					end := off + 512
					if end > len(raw) {
						end = len(raw)
					}
					_, _, err := tbl.Ingest(id, FormatBinary, raw[off:end])
					var bp *BackpressureError
					var gone *GoneError
					switch {
					case errors.As(err, &bp):
						time.Sleep(bp.RetryAfter) // retry the same bytes
					case errors.As(err, &gone), errors.Is(err, ErrNotFound):
						evicted = true // a racing sweep took the session
					case err != nil:
						t.Errorf("ingest: %v", err)
						return
					default:
						off = end
						tbl.Scores(id)
					}
				}
				// Half the sessions close explicitly; the rest idle out
				// under the advancing clock and the sweeper takes them.
				if i%2 == 0 {
					if _, err := tbl.Close(id, CloseClient); err == nil {
						closedByUs.Add(1)
					}
				} else {
					clock.advance(time.Second)
				}
			}
		}(g)
	}
	wg.Wait()
	tbl.Shutdown()

	if tbl.Len() != 0 {
		t.Fatalf("sessions leaked past shutdown: %d", tbl.Len())
	}
	if tbl.QueuedEvents() != 0 {
		t.Fatalf("queued events leaked past shutdown: %d", tbl.QueuedEvents())
	}
	if opened.Load() == 0 || closedByUs.Load() == 0 {
		t.Fatalf("chaos degenerated: opened=%d closed=%d", opened.Load(), closedByUs.Load())
	}
}

// TestTableShutdownDrains proves queued-but-unapplied events still reach
// the estimators when the table shuts down mid-stream.
func TestTableShutdownDrains(t *testing.T) {
	raw := serialize(t, genEvents(13, 1000))
	r, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	offline, err := Replay(r, Spec{})
	if err != nil {
		t.Fatal(err)
	}

	tbl := NewTable(TableConfig{Shards: 2})
	id, _, _, err := tbl.Open(Spec{}, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tbl.Ingest(id, FormatBinary, raw); err != nil {
		t.Fatal(err)
	}
	ch, _, err := tbl.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	tbl.Shutdown()

	var final Scores
	for sc := range ch {
		final = sc
	}
	if !final.Final {
		t.Fatalf("subscriber never saw the final snapshot: %+v", final)
	}
	if !reflect.DeepEqual(final, offline) {
		t.Fatalf("shutdown-drained scores diverge from offline replay:\n table   %+v\n offline %+v", final, offline)
	}
	if _, _, _, err := tbl.Open(Spec{}, ""); !errors.Is(err, ErrShutdown) {
		t.Fatalf("open after shutdown = %v", err)
	}
}

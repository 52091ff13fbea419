package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
)

// buildStream serializes a fixed event sequence (v2 header with a marked
// provenance) and returns the raw bytes plus the events written.
func buildStream(t *testing.T) ([]byte, []Event, [provenanceSize]byte) {
	t.Helper()
	var prov [provenanceSize]byte
	for i := range prov {
		prov[i] = byte(i * 3)
	}
	events := []Event{
		{Kind: EvCycle, PC: 64},
		{Kind: EvFetch, Tag: 1, PC: 0x4000, History: 0xbeef, MDC: 3, Flags: 1},
		{Kind: EvFetch, Tag: 2, PC: 0x4010, History: 0xcafe, MDC: 1, Flags: 1},
		{Kind: EvResolve, Tag: 1},
		{Kind: EvSquash, Tag: 2},
		{Kind: EvRetire, PC: 0x4000, History: 0xbeef, MDC: 3, Flags: 3},
		{Kind: EvCycle, PC: 128},
	}
	var buf bytes.Buffer
	w, err := NewWriterProvenance(&buf, prov)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), events, prov
}

// feedChunked pushes raw through a fresh decoder in chunks of size n and
// returns the emitted events.
func feedChunked(t *testing.T, raw []byte, n int) (*Decoder, []Event) {
	t.Helper()
	var d Decoder
	var got []Event
	for off := 0; off < len(raw); off += n {
		end := off + n
		if end > len(raw) {
			end = len(raw)
		}
		if err := d.Feed(raw[off:end], func(ev Event) error {
			got = append(got, ev)
			return nil
		}); err != nil {
			t.Fatalf("chunk size %d at offset %d: %v", n, off, err)
		}
	}
	return &d, got
}

// TestDecoderMatchesReaderAtAnyChunking is the core property: however the
// stream is split — byte-at-a-time, across the header, across records —
// the decoder emits exactly what the pull Reader yields.
func TestDecoderMatchesReaderAtAnyChunking(t *testing.T) {
	raw, want, prov := buildStream(t)

	// Reference: the pull reader.
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var ref []Event
	for {
		ev, err := r.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ref = append(ref, ev)
	}
	if !reflect.DeepEqual(ref, want) {
		t.Fatalf("reader round-trip mismatch:\n got %v\nwant %v", ref, want)
	}

	for _, n := range []int{1, 2, 3, 7, 8, 22, 23, 24, 39, 40, 41, 64, len(raw)} {
		d, got := feedChunked(t, raw, n)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk size %d: events mismatch:\n got %v\nwant %v", n, got, want)
		}
		if !d.HeaderDone() || d.Version() != Version || d.Provenance() != prov {
			t.Fatalf("chunk size %d: header not recovered (done=%v v=%d)", n, d.HeaderDone(), d.Version())
		}
		if d.Buffered() != 0 {
			t.Fatalf("chunk size %d: %d bytes left buffered after a whole stream", n, d.Buffered())
		}
	}
}

// TestDecoderV1Header proves version-1 streams (no provenance) decode,
// including split mid-header.
func TestDecoderV1Header(t *testing.T) {
	var buf bytes.Buffer
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], Magic)
	binary.LittleEndian.PutUint32(hdr[4:], 1)
	buf.Write(hdr[:])
	var rec [recordSize]byte
	rec[0] = byte(EvCycle)
	binary.LittleEndian.PutUint64(rec[9:], 640)
	buf.Write(rec[:])

	_, got := feedChunked(t, buf.Bytes(), 5)
	want := []Event{{Kind: EvCycle, PC: 640}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("v1 decode = %v, want %v", got, want)
	}
}

func TestDecoderRejectsBadStreams(t *testing.T) {
	var d Decoder
	if err := d.Feed([]byte("notatrace"), nil); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("bad magic: err = %v, want ErrBadHeader", err)
	}

	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], Magic)
	binary.LittleEndian.PutUint32(hdr[4:], 99)
	d = Decoder{}
	if err := d.Feed(hdr[:], nil); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("future version: err = %v, want ErrBadHeader", err)
	}

	raw, _, _ := buildStream(t)
	bad := append([]byte(nil), raw...)
	bad[len(raw)-recordSize] = 200 // corrupt the last record's kind
	d = Decoder{}
	err := d.Feed(bad, func(Event) error { return nil })
	if err == nil {
		t.Fatal("unknown kind not rejected")
	}
}

// TestDecoderSnapshotRestore is the backpressure contract: after a
// rejected chunk the decoder rewinds, and retrying the identical bytes
// emits the identical events.
func TestDecoderSnapshotRestore(t *testing.T) {
	raw, want, _ := buildStream(t)

	// Feed an awkward prefix so the snapshot holds a partial record.
	split := 8 + provenanceSize + recordSize + 5
	var d Decoder
	var got []Event
	collect := func(ev Event) error { got = append(got, ev); return nil }
	if err := d.Feed(raw[:split], collect); err != nil {
		t.Fatal(err)
	}

	snap := d.Snapshot()
	before := len(got)

	// First attempt: decode the rest, then pretend the enqueue was
	// rejected — roll back both the decoder and the collected events.
	if err := d.Feed(raw[split:], collect); err != nil {
		t.Fatal(err)
	}
	firstTry := append([]Event(nil), got[before:]...)
	got = got[:before]
	d.Restore(snap)

	// Retry with the same bytes must produce the same events.
	if err := d.Feed(raw[split:], collect); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[before:], firstTry) {
		t.Fatalf("retry after Restore diverged:\n got %v\nwant %v", got[before:], firstTry)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("final events mismatch:\n got %v\nwant %v", got, want)
	}
}

// TestDecoderEmitErrorStopsFeed confirms an emit error propagates and
// consumes nothing conceptually — callers Restore a snapshot to retry.
func TestDecoderEmitErrorStopsFeed(t *testing.T) {
	raw, want, _ := buildStream(t)
	sentinel := errors.New("queue full")

	var d Decoder
	snap := d.Snapshot()
	calls := 0
	err := d.Feed(raw, func(Event) error {
		calls++
		if calls == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("emit error not propagated: %v", err)
	}

	d.Restore(snap)
	var got []Event
	if err := d.Feed(raw, func(ev Event) error { got = append(got, ev); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-restore decode mismatch:\n got %v\nwant %v", got, want)
	}
}

// TestDecoderMidRecordSplitAllocs pins the in-place parse: a stream cut
// mid-record completes the partial record from the next chunk's head
// and parses the rest of that chunk where it lies. Once warm, a split
// feed — with the Snapshot ingest takes before each chunk — allocates
// nothing, and the decoder never holds more than a partial header or
// record, however long the chunks are.
func TestDecoderMidRecordSplitAllocs(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := w.Write(Event{Kind: EvFetch, Tag: uint64(i), PC: 0x4000 + uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	hdr := 8 + provenanceSize
	raw := buf.Bytes()
	var d Decoder
	if err := d.Feed(raw[:hdr], nil); err != nil {
		t.Fatal(err)
	}
	records := raw[hdr:]
	split := 150*recordSize + 7 // the first chunk ends 7 bytes into a record
	n := 0
	emit := func(Event) error { n++; return nil }
	feed := func() {
		for _, chunk := range [][]byte{records[:split], records[split:]} {
			_ = d.Snapshot()
			if err := d.Feed(chunk, emit); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed()
	if allocs := testing.AllocsPerRun(50, feed); allocs != 0 {
		t.Fatalf("split feed allocated %v times per pass, want 0", allocs)
	}
	if n != 52*200 {
		t.Fatalf("decoded %d events over 52 passes, want %d", n, 52*200)
	}
	if cap(d.rem) >= maxPending {
		t.Fatalf("decoder buffer grew to %d bytes: it copied a chunk instead of parsing in place", cap(d.rem))
	}
}

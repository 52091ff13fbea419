package trace

import (
	"encoding/binary"
	"fmt"
)

// Decoder is the incremental, push-driven counterpart of Reader: feed it
// arbitrary byte chunks of a v1/v2 trace stream — split anywhere,
// including mid-header or mid-record — and it emits complete events as
// they become decodable. This is the ingest path for streaming sessions,
// where a recorded trace arrives as HTTP request bodies chunked at
// whatever boundaries the client chose, so a `paco-trace record` file
// pipes straight into a live session.
//
// The decoder buffers at most one incomplete header or record (under
// 40 bytes), never whole streams. State is snapshottable: an ingest path
// that must reject a chunk (backpressure) captures a Snapshot first and
// Restores it on rejection, so the client can retry the identical bytes
// and decoding resumes exactly where it left off.
type Decoder struct {
	headerDone bool
	version    uint32
	provenance [provenanceSize]byte
	rem        []byte // unconsumed tail: partial header or partial record
}

// DecoderState is an opaque copy of a Decoder's position in the stream,
// captured by Snapshot and reinstated by Restore.
type DecoderState struct {
	headerDone bool
	version    uint32
	provenance [provenanceSize]byte
	rem        [maxPending]byte
	nrem       uint8
}

// maxPending bounds what a Decoder holds between Feeds: less than a v2
// header, which is longer than a record.
const maxPending = 8 + provenanceSize

// Snapshot captures the decoder's current state. The copy is deep and
// fixed-size — the decoder buffers less than a header's worth of bytes
// — so taking one allocates nothing.
func (d *Decoder) Snapshot() DecoderState {
	s := DecoderState{headerDone: d.headerDone, version: d.version, provenance: d.provenance}
	s.nrem = uint8(copy(s.rem[:], d.rem))
	return s
}

// Restore rewinds the decoder to a previously captured state, discarding
// everything fed since. Feeding the same bytes again re-emits the same
// events.
func (d *Decoder) Restore(s DecoderState) {
	d.headerDone = s.headerDone
	d.version = s.version
	d.provenance = s.provenance
	d.rem = append(d.rem[:0], s.rem[:s.nrem]...)
}

// Feed consumes one chunk, calling emit for every event completed by its
// bytes. A decode error (bad magic, unsupported version, unknown event
// kind) or an error returned by emit stops the feed and is returned;
// decode errors are terminal for the stream, and callers who need to
// retry after an emit error should Restore a pre-Feed Snapshot rather
// than re-feeding into half-consumed state.
func (d *Decoder) Feed(chunk []byte, emit func(Event) error) error {
	data := chunk
	if !d.headerDone {
		if len(d.rem) > 0 {
			d.rem = append(d.rem, chunk...)
			data = d.rem
		}
		n, err := d.parseHeader(data)
		if err != nil {
			return err
		}
		if n == 0 { // incomplete header
			d.stash(data)
			return nil
		}
		data = data[n:]
	} else if len(d.rem) > 0 {
		// Complete the partial record from the chunk's head, then parse
		// the rest of the chunk in place.
		need := recordSize - len(d.rem)
		if len(chunk) < need {
			d.rem = append(d.rem, chunk...)
			return nil
		}
		d.rem = append(d.rem, chunk[:need]...)
		ev, err := parseRecord(d.rem)
		if err != nil {
			return err
		}
		if err := emit(ev); err != nil {
			return err
		}
		data = chunk[need:]
	}

	for len(data) >= recordSize {
		ev, err := parseRecord(data)
		if err != nil {
			return err
		}
		if err := emit(ev); err != nil {
			return err
		}
		data = data[recordSize:]
	}
	d.stash(data)
	return nil
}

// parseHeader attempts to parse the stream header from data, returning
// the bytes consumed (0 when data is too short to decide).
func (d *Decoder) parseHeader(data []byte) (int, error) {
	if len(data) < 8 {
		return 0, nil
	}
	if binary.LittleEndian.Uint32(data[0:]) != Magic {
		return 0, ErrBadHeader
	}
	version := binary.LittleEndian.Uint32(data[4:])
	need := 8
	switch version {
	case 1:
		// No provenance field.
	case 2:
		need += provenanceSize
	default:
		return 0, fmt.Errorf("%w: unsupported version %d", ErrBadHeader, version)
	}
	if len(data) < need {
		return 0, nil
	}
	d.version = version
	if version >= 2 {
		copy(d.provenance[:], data[8:need])
	}
	d.headerDone = true
	return need, nil
}

// stash retains the unconsumed tail across Feed calls. data may alias
// d.rem (append's copy handles the overlap) or the caller's chunk
// (copied, so the caller may reuse its buffer).
func (d *Decoder) stash(data []byte) {
	d.rem = append(d.rem[:0], data...)
}

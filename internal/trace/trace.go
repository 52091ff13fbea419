// Package trace records and replays branch-event traces, decoupling path
// confidence research from the bundled simulator: capture the branch
// lifecycle of any run to a compact binary stream, then replay it against
// any set of estimators offline (and deterministically) without paying the
// cycle-level simulation cost again.
//
// The format is a little-endian stream of fixed-size records behind a
// small header; encoding/binary only, no external dependencies.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"paco/internal/core"
)

// Magic identifies a trace stream; Version is bumped on format changes.
//
// Version history:
//
//	1: magic + version, fixed-size records.
//	2: adds a 32-byte provenance hash to the header — the canonical
//	   content hash of the scenario that generated the traced workload
//	   (zero when the trace was not scenario-driven). Readers accept
//	   both versions.
const (
	Magic   = 0x5061436f // "PaCo"
	Version = 2
)

// provenanceSize is the provenance hash length in version >= 2 headers.
const provenanceSize = 32

// EventKind tags one record.
type EventKind uint8

// Event kinds mirror the estimator lifecycle, plus a cycle marker.
const (
	EvFetch EventKind = iota + 1
	EvResolve
	EvSquash
	EvRetire
	EvCycle
)

// Event is one trace record.
//
// Fetch events carry the full BranchEvent plus a Tag identifying the
// dynamic branch; Resolve/Squash reference the Tag; Retire carries the
// event and correctness; Cycle advances simulated time (PC holds the
// cycle number).
type Event struct {
	Kind    EventKind
	Tag     uint64
	PC      uint64
	History uint32
	MDC     uint8
	Flags   uint8 // bit0: conditional, bit1: correct (retire)
}

const recordSize = 1 + 8 + 8 + 4 + 1 + 1

// Writer serializes events.
type Writer struct {
	w   *bufio.Writer
	buf [recordSize]byte
	n   uint64
}

// NewWriter writes a header with zero provenance and returns a trace
// writer.
func NewWriter(w io.Writer) (*Writer, error) {
	return NewWriterProvenance(w, [provenanceSize]byte{})
}

// NewWriterProvenance writes a header stamped with the given provenance
// hash (the canonical scenario hash of the traced workload) and returns
// a trace writer.
func NewWriterProvenance(w io.Writer, provenance [provenanceSize]byte) (*Writer, error) {
	bw := bufio.NewWriter(w)
	var hdr [8 + provenanceSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], Magic)
	binary.LittleEndian.PutUint32(hdr[4:], Version)
	copy(hdr[8:], provenance[:])
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// Write appends one event.
func (tw *Writer) Write(ev Event) error {
	b := tw.buf[:]
	b[0] = byte(ev.Kind)
	binary.LittleEndian.PutUint64(b[1:], ev.Tag)
	binary.LittleEndian.PutUint64(b[9:], ev.PC)
	binary.LittleEndian.PutUint32(b[17:], ev.History)
	b[21] = ev.MDC
	b[22] = ev.Flags
	_, err := tw.w.Write(b)
	tw.n++
	return err
}

// Events returns how many events have been written.
func (tw *Writer) Events() uint64 { return tw.n }

// Flush flushes buffered records to the underlying writer.
func (tw *Writer) Flush() error { return tw.w.Flush() }

// Reader deserializes events.
type Reader struct {
	r          *bufio.Reader
	buf        [recordSize]byte
	version    uint32
	provenance [provenanceSize]byte
}

// ErrBadHeader reports a stream that is not a PaCo trace.
var ErrBadHeader = errors.New("trace: bad header")

// NewReader validates the header and returns a trace reader. Version 1
// streams (no provenance) remain readable.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadHeader, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != Magic {
		return nil, ErrBadHeader
	}
	tr := &Reader{r: br, version: binary.LittleEndian.Uint32(hdr[4:])}
	switch tr.version {
	case 1:
		// No provenance field.
	case 2:
		if _, err := io.ReadFull(br, tr.provenance[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated provenance: %v", ErrBadHeader, err)
		}
	default:
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadHeader, tr.version)
	}
	return tr, nil
}

// Provenance returns the header's canonical scenario hash; the zero
// value means the trace was not scenario-driven (or is version 1).
func (tr *Reader) Provenance() [provenanceSize]byte { return tr.provenance }

// Read returns the next event, or io.EOF at end of stream.
func (tr *Reader) Read() (Event, error) {
	if _, err := io.ReadFull(tr.r, tr.buf[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Event{}, fmt.Errorf("trace: truncated record: %w", err)
		}
		return Event{}, err
	}
	return parseRecord(tr.buf[:])
}

// parseRecord decodes one fixed-size record from b (which must hold at
// least recordSize bytes) — shared by Reader.Read and Decoder.Feed so
// the pull and push paths cannot drift.
func parseRecord(b []byte) (Event, error) {
	ev := Event{
		Kind:    EventKind(b[0]),
		Tag:     binary.LittleEndian.Uint64(b[1:]),
		PC:      binary.LittleEndian.Uint64(b[9:]),
		History: binary.LittleEndian.Uint32(b[17:]),
		MDC:     b[21],
		Flags:   b[22],
	}
	if ev.Kind < EvFetch || ev.Kind > EvCycle {
		return Event{}, fmt.Errorf("trace: unknown event kind %d", ev.Kind)
	}
	return ev, nil
}

// Branch converts a record to the estimator-facing event.
func (ev Event) Branch() core.BranchEvent {
	return core.BranchEvent{
		PC:          ev.PC,
		History:     ev.History,
		MDC:         uint32(ev.MDC),
		Conditional: ev.Flags&1 != 0,
	}
}

// Conditional reports the record's conditional-branch bit.
func (ev Event) Conditional() bool { return ev.Flags&1 != 0 }

// Correct reports a retire record's prediction-correct bit.
func (ev Event) Correct() bool { return ev.Flags&2 != 0 }

// Recorder adapts an estimator-shaped sink into trace records: install it
// as an extra estimator on a simulated thread and every lifecycle event is
// captured. Contribution tokens carry the tag.
type Recorder struct {
	w       *Writer
	nextTag uint64
	err     error
}

// NewRecorder wraps a Writer as an Estimator.
func NewRecorder(w *Writer) *Recorder { return &Recorder{w: w} }

// Err returns the first write error, if any (the Estimator interface has
// no error returns; check after the run).
func (r *Recorder) Err() error { return r.err }

func (r *Recorder) record(ev Event) {
	if r.err == nil {
		r.err = r.w.Write(ev)
	}
}

// BranchFetched implements core.Estimator.
func (r *Recorder) BranchFetched(ev core.BranchEvent) core.Contribution {
	tag := r.nextTag
	r.nextTag++
	flags := uint8(0)
	if ev.Conditional {
		flags |= 1
	}
	r.record(Event{Kind: EvFetch, Tag: tag, PC: ev.PC, History: ev.History, MDC: uint8(ev.MDC), Flags: flags})
	// Smuggle the tag through the contribution token.
	return core.Contribution{Encoded: uint32(tag), Tracked: true, LowConf: ev.Conditional}
}

// BranchResolved implements core.Estimator.
func (r *Recorder) BranchResolved(c core.Contribution) {
	if c.Tracked {
		r.record(Event{Kind: EvResolve, Tag: uint64(c.Encoded)})
	}
}

// BranchSquashed implements core.Estimator.
func (r *Recorder) BranchSquashed(c core.Contribution) {
	if c.Tracked {
		r.record(Event{Kind: EvSquash, Tag: uint64(c.Encoded)})
	}
}

// BranchRetired implements core.Estimator.
func (r *Recorder) BranchRetired(ev core.BranchEvent, correct bool) {
	flags := uint8(0)
	if ev.Conditional {
		flags |= 1
	}
	if correct {
		flags |= 2
	}
	r.record(Event{Kind: EvRetire, PC: ev.PC, History: ev.History, MDC: uint8(ev.MDC), Flags: flags})
}

// Tick implements core.Estimator: cycle markers let replay drive periodic
// work at the original cadence. Only every 64th cycle is recorded to keep
// traces compact, so replay reproduces live estimator state exactly when
// periodic work (e.g. PaCo's RefreshPeriod) is a multiple of 64 cycles;
// otherwise refresh points may shift by up to 63 cycles.
func (r *Recorder) Tick(cycle uint64) {
	if cycle%64 == 0 {
		r.record(Event{Kind: EvCycle, PC: cycle})
	}
}

// Reset implements core.Estimator.
func (r *Recorder) Reset() { r.nextTag = 0 }

var _ core.Estimator = (*Recorder)(nil)

// ReplayStats summarizes a replay.
type ReplayStats struct {
	Fetches, Resolves, Squashes, Retires uint64
	Cycles                               uint64
}

// Replay drives a set of estimators from a trace. Dangling in-flight
// branches at end of trace are squashed so estimator sums drain; that
// drain is not counted in Squashes.
func Replay(r *Reader, ests []core.Estimator) (ReplayStats, error) {
	var st ReplayStats
	inflight := NewInflight(len(ests))
	for {
		ev, err := r.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return st, err
		}
		switch ev.Kind {
		case EvFetch:
			st.Fetches++
			be := ev.Branch()
			row := inflight.Put(ev.Tag)
			for i, e := range ests {
				row[i] = e.BranchFetched(be)
			}
		case EvResolve, EvSquash:
			row, ok := inflight.Take(ev.Tag)
			if !ok {
				return st, fmt.Errorf("trace: tag %d resolved without fetch", ev.Tag)
			}
			for i, e := range ests {
				if ev.Kind == EvResolve {
					e.BranchResolved(row[i])
				} else {
					e.BranchSquashed(row[i])
				}
			}
			if ev.Kind == EvResolve {
				st.Resolves++
			} else {
				st.Squashes++
			}
		case EvRetire:
			st.Retires++
			be := ev.Branch()
			for _, e := range ests {
				e.BranchRetired(be, ev.Correct())
			}
		case EvCycle:
			st.Cycles = ev.PC
			for _, e := range ests {
				e.Tick(ev.PC)
			}
		}
	}
	inflight.Drain(func(row []core.Contribution) {
		for i, e := range ests {
			e.BranchSquashed(row[i])
		}
	})
	return st, nil
}

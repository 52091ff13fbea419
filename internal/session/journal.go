package session

import (
	"fmt"

	"paco/internal/trace"
)

// Journal is an append-only log of acknowledged ingest chunks for one
// session — the replay source that lets a coordinator re-create a
// routed session on a surviving worker after its owner dies. It stores
// chunk bytes verbatim: both wire formats are chunk-relocatable (the
// binary decoder resumes mid-record, NDJSON stitches partial lines), so
// replaying the chunks in order through the same decoders the table's
// ingest path uses reconstructs exactly the event stream the dead
// worker had acknowledged. A Journal is not safe for concurrent use;
// the owner serializes access.
type Journal struct {
	format Format
	chunks [][]byte
	nbytes int
}

// NewJournal returns an empty journal. The format locks at the first
// Append, mirroring how a session locks onto its first chunk's
// encoding.
func NewJournal() *Journal { return &Journal{} }

// Append records one acknowledged chunk (copying it — callers reuse
// buffers). Appending a chunk in a different format than the first is
// the same client error the table rejects with *FormatError.
func (j *Journal) Append(format Format, chunk []byte) error {
	if j.format == "" {
		j.format = format
	} else if j.format != format {
		return &FormatError{Have: j.format, Got: format}
	}
	j.chunks = append(j.chunks, append([]byte(nil), chunk...))
	j.nbytes += len(chunk)
	return nil
}

// Format returns the journal's locked stream format ("" while empty).
func (j *Journal) Format() Format { return j.format }

// Len reports recorded chunks; Bytes their total wire size.
func (j *Journal) Len() int   { return len(j.chunks) }
func (j *Journal) Bytes() int { return j.nbytes }

// Chunks returns the recorded chunks in append order. The slices share
// the journal's backing memory — callers must not mutate them.
func (j *Journal) Chunks() [][]byte { return j.chunks }

// Events decodes the whole journal back into its event stream through
// the chunk decoders the ingest path uses: the binary trace decoder
// resuming across chunk boundaries, or NDJSON with partial-line
// stitching (a final unterminated line is accepted, as IngestNDJSON
// accepts it).
func (j *Journal) Events() ([]trace.Event, error) {
	var evs []trace.Event
	switch j.format {
	case "":
		return nil, nil
	case FormatBinary:
		var dec trace.Decoder
		for _, chunk := range j.chunks {
			if err := dec.Feed(chunk, func(ev trace.Event) error {
				evs = append(evs, ev)
				return nil
			}); err != nil {
				return nil, err
			}
		}
	case FormatNDJSON:
		var rem []byte
		for i, chunk := range j.chunks {
			var err error
			if evs, rem, err = appendNDJSON(evs, rem, chunk, i == len(j.chunks)-1); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("session: unknown journal format %q", j.format)
	}
	return evs, nil
}

// Replay scores the journal offline: a fresh session over the decoded
// event stream, closed for its final snapshot — the reference a
// failed-over session's finals are byte-compared against.
func (j *Journal) Replay(spec Spec) (Scores, error) {
	evs, err := j.Events()
	if err != nil {
		return Scores{}, err
	}
	s, err := New(spec)
	if err != nil {
		return Scores{}, err
	}
	if err := s.ApplyAll(evs); err != nil {
		return s.Close(), err
	}
	return s.Close(), nil
}

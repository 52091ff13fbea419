package session

import (
	"fmt"

	"paco/internal/trace"
)

// Append records one acknowledged chunk, copying it: the tests reuse
// buffers.
func (j *Journal) Append(format Format, chunk []byte) error {
	return j.Adopt(format, append([]byte(nil), chunk...))
}

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

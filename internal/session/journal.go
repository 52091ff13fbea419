package session

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
// Adopt, mirroring how a session locks onto its first chunk's
// encoding.
func NewJournal() *Journal { return &Journal{} }

// Adopt records one acknowledged chunk. The journal keeps chunk itself,
// so the caller must not change it afterwards. Adopting a chunk in a
// different format than the first is the same client error the table
// rejects with *FormatError.
func (j *Journal) Adopt(format Format, chunk []byte) error {
	if j.format == "" {
		j.format = format
	} else if j.format != format {
		return &FormatError{Have: j.format, Got: format}
	}
	j.chunks = append(j.chunks, chunk)
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

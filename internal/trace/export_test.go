package trace

// Test-only views of a decoder's and a reader's header state.

// HeaderDone reports whether the stream header has been fully parsed,
// after which Version and Provenance are meaningful.
func (d *Decoder) HeaderDone() bool { return d.headerDone }

// Version returns the stream's header version (0 until HeaderDone).
func (d *Decoder) Version() uint32 { return d.version }

// Provenance returns the v2 header's canonical scenario hash (zero for
// v1 streams, non-scenario traces, or before HeaderDone).
func (d *Decoder) Provenance() [provenanceSize]byte { return d.provenance }

// Buffered reports how many undecoded bytes the decoder is holding —
// always less than a header or record.
func (d *Decoder) Buffered() int { return len(d.rem) }

// FormatVersion returns the stream's header version.
func (tr *Reader) FormatVersion() uint32 { return tr.version }

package server

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// Content addressing. Every simulation in this repository is
// deterministic given its spec (DESIGN.md), so a job's result is a pure
// function of its canonicalized spec: SHA-256 of the canonical bytes is
// the result's address, and two requests that describe the same work hash
// to the same address no matter how their JSON was spelled.

// Key computes the content address of the given spec parts: the SHA-256
// hex digest over the parts separated by NUL (so part boundaries are
// unambiguous).
func Key(parts ...[]byte) string {
	h := sha256.New()
	for i, p := range parts {
		if i > 0 {
			h.Write([]byte{0})
		}
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CanonicalJSON rewrites a JSON document into its canonical form: object
// keys sorted, insignificant whitespace removed, and numbers in a single
// normal form (integers in base 10 without exponent when exactly
// representable, shortest-round-trip floats otherwise). Two JSON
// documents that differ only in key order, whitespace, or number
// spelling canonicalize to identical bytes — the property the
// content-addressed cache's keys rest on.
//
// The output is what decoding the document into interface values and
// re-marshaling them with encoding/json gives — keys sorted by their
// decoded bytes, the last of duplicate keys winning, strings in
// json.Marshal's escaping — but it is produced in one pass over the
// validated bytes, without a decoded tree. As with a json.Decoder, the
// document may be followed by whitespace, or by whitespace and a
// closing bracket and anything after it; other trailing data is an
// error.
func CanonicalJSON(raw []byte) ([]byte, error) {
	doc := raw
	if !json.Valid(raw) {
		var err error
		if doc, err = firstDocument(raw); err != nil {
			return nil, fmt.Errorf("server: canonicalizing spec: %w", err)
		}
	}
	c := canonicalizer{
		out:     make([]byte, 0, len(doc)),
		members: make([]member, 0, 32), // enough for a spec's objects
		scratch: make([]byte, 0, len(doc)),
	}
	c.value(doc, skipSpace(doc, 0))
	return c.out, nil
}

// firstDocument returns the document a json.Decoder reads first from
// raw, or the decoder's error. It is consulted only for input that is
// not one whole JSON document, so it both words the error exactly as a
// decoder does and accepts the trailing closing bracket Decoder.More
// does not count as more data.
func firstDocument(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	var doc json.RawMessage
	if err := dec.Decode(&doc); err != nil {
		return nil, err
	}
	if dec.More() {
		return nil, errors.New("trailing data after JSON document")
	}
	return doc, nil
}

// canonicalizer writes the canonical form of a valid JSON document. Its
// scratch state is reused across the document's objects: members is a
// stack holding the members of every object being written, scratch
// the bytes of the one being reordered.
type canonicalizer struct {
	out     []byte
	members []member
	scratch []byte
}

// member is one object member written to out: its decoded key and the
// span of its `"key":value` bytes.
type member struct {
	key        []byte
	start, end int
}

// value appends the canonical form of the value starting at raw[i] and
// returns the index just past it. raw is valid JSON.
func (c *canonicalizer) value(raw []byte, i int) int {
	switch raw[i] {
	case '{':
		return c.object(raw, i)
	case '[':
		c.out = append(c.out, '[')
		i = skipSpace(raw, i+1)
		for n := 0; raw[i] != ']'; n++ {
			if n > 0 {
				c.out = append(c.out, ',')
				i = skipSpace(raw, i+1) // past the comma
			}
			i = skipSpace(raw, c.value(raw, i))
		}
		c.out = append(c.out, ']')
		return i + 1
	case '"':
		end := stringEnd(raw, i)
		c.out, _ = appendCanonicalString(c.out, raw[i:end])
		return end
	case 't':
		c.out = append(c.out, "true"...)
		return i + len("true")
	case 'f':
		c.out = append(c.out, "false"...)
		return i + len("false")
	case 'n':
		c.out = append(c.out, "null"...)
		return i + len("null")
	}
	end := i + 1
	for end < len(raw) && isNumberByte(raw[end]) {
		end++
	}
	c.out = appendCanonicalNumber(c.out, raw[i:end])
	return end
}

// object writes the object at raw[i] with its members in key order; a
// key that occurs more than once keeps its last value, as decoding into
// a map does.
func (c *canonicalizer) object(raw []byte, i int) int {
	start, base := len(c.out), len(c.members)
	c.out = append(c.out, '{')
	sorted := true
	i = skipSpace(raw, i+1)
	for raw[i] != '}' {
		if len(c.members) > base {
			c.out = append(c.out, ',')
			i = skipSpace(raw, i+1) // past the comma
		}
		end := stringEnd(raw, i)
		m := member{start: len(c.out)}
		c.out, m.key = appendCanonicalString(c.out, raw[i:end])
		c.out = append(c.out, ':')
		i = skipSpace(raw, skipSpace(raw, end)+1) // past the colon
		i = skipSpace(raw, c.value(raw, i))
		m.end = len(c.out)
		if len(c.members) > base && bytes.Compare(c.members[len(c.members)-1].key, m.key) >= 0 {
			sorted = false
		}
		c.members = append(c.members, m)
	}
	if !sorted {
		c.reorder(start, c.members[base:])
	}
	c.members = c.members[:base]
	c.out = append(c.out, '}')
	return i + 1
}

// reorder rewrites the members written to out[start:] — the object's
// opening brace and its members in input order — sorted by key, with
// each duplicate key's earlier members dropped.
func (c *canonicalizer) reorder(start int, ms []member) {
	slices.SortStableFunc(ms, func(a, b member) int { return bytes.Compare(a.key, b.key) })
	c.scratch = append(c.scratch[:0], c.out[start:]...)
	c.out = c.out[:start+1]
	for k, m := range ms {
		if k+1 < len(ms) && bytes.Equal(ms[k+1].key, m.key) {
			continue // a later duplicate wins
		}
		if len(c.out) > start+1 {
			c.out = append(c.out, ',')
		}
		c.out = append(c.out, c.scratch[m.start-start:m.end-start]...)
	}
}

func skipSpace(raw []byte, i int) int {
	for i < len(raw) && (raw[i] == ' ' || raw[i] == '\t' || raw[i] == '\n' || raw[i] == '\r') {
		i++
	}
	return i
}

// stringEnd returns the index just past the valid string literal that
// starts at raw[i].
func stringEnd(raw []byte, i int) int {
	for i++; raw[i] != '"'; i++ {
		if raw[i] == '\\' {
			i++
		}
	}
	return i + 1
}

func isNumberByte(b byte) bool {
	return '0' <= b && b <= '9' || b == '-' || b == '+' || b == '.' || b == 'e' || b == 'E'
}

// appendCanonicalString appends the valid string literal lit as
// json.Marshal spells its decoded value, and returns that value. A
// literal already spelled so — no escapes, no characters Marshal
// escapes, valid UTF-8 — is copied as it stands.
func appendCanonicalString(dst, lit []byte) ([]byte, []byte) {
	body := lit[1 : len(lit)-1]
	if marshalSpelled(body) {
		return append(dst, lit...), body
	}
	s := unquote(body)
	return appendMarshalString(dst, s), s
}

// marshalSpelled reports whether the body of a valid string literal
// holds nothing json.Marshal would spell differently: no escape, no
// '<', '>' or '&', no U+2028 or U+2029, and valid UTF-8.
func marshalSpelled(body []byte) bool {
	for i := 0; i < len(body); {
		b := body[i]
		if b < utf8.RuneSelf {
			if b == '\\' || b == '<' || b == '>' || b == '&' {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(body[i:])
		if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
			return false
		}
		i += size
	}
	return true
}

// unquote decodes the body of a valid string literal as encoding/json
// does: escapes resolved, a \u escape of an unpaired surrogate and every
// byte that is not valid UTF-8 replaced by U+FFFD.
func unquote(body []byte) []byte {
	out := make([]byte, 0, len(body))
	for i := 0; i < len(body); {
		switch b := body[i]; {
		case b == '\\':
			switch e := body[i+1]; e {
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(body[i+2:])
				i += 6
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if i+6 <= len(body) && body[i] == '\\' && body[i+1] == 'u' {
						r2 = hex4(body[i+2:])
					}
					if d := utf16.DecodeRune(r, r2); d != utf8.RuneError {
						r = d
						i += 6
					} else {
						r = utf8.RuneError
					}
				}
				out = utf8.AppendRune(out, r)
				continue
			default: // '"', '\\' or '/'
				out = append(out, e)
			}
			i += 2
		case b < utf8.RuneSelf:
			out = append(out, b)
			i++
		default:
			r, size := utf8.DecodeRune(body[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	return out
}

// hex4 decodes the four hex digits of a valid \u escape.
func hex4(b []byte) rune {
	r, _ := strconv.ParseUint(string(b[:4]), 16, 16)
	return rune(r)
}

// appendMarshalString appends s quoted exactly as json.Marshal quotes
// it: '"' and '\\' escaped, control characters as \b, \f, \n, \r, \t or
// \u00XX, '<', '>' and '&' and U+2028 and U+2029 as \u escapes, and each
// byte that is not valid UTF-8 as \ufffd. It takes a string as well as
// bytes, so the hand-written status head quotes its fields with it
// without converting them.
func appendMarshalString[S ~[]byte | ~string](dst []byte, s S) []byte {
	const hexDigits = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0 // s[start:i] is copied as it stands
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		// At most utf8.UTFMax bytes are converted, so the string stays on
		// the stack.
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			if r == utf8.RuneError {
				dst = append(dst, `\ufffd`...)
			} else {
				dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			}
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendCanonicalNumber appends the one spelling numerically equal JSON
// numbers ("1e6", "1000000", "1000000.0") share.
func appendCanonicalNumber(dst, lit []byte) []byte {
	s := string(lit)
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return strconv.AppendInt(dst, i, 10)
	}
	if u, err := strconv.ParseUint(s, 10, 64); err == nil {
		return strconv.AppendUint(dst, u, 10)
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		// Not parseable as a number we can normalize; keep the original
		// spelling (still deterministic for equal inputs).
		return append(dst, lit...)
	}
	// Integral floats format as integers across the whole int64 range so
	// "1e18" and "1000000000000000000" agree; spellings equal only beyond
	// float64 precision still hash apart, which is the best any
	// float64-based normalization can do.
	if f == math.Trunc(f) && f >= -(1<<63) && f < 1<<63 {
		return strconv.AppendInt(dst, int64(f), 10)
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}

// Cache is the content-addressed result store: key (SHA-256 of the
// canonical spec) to result bytes, bounded by a byte budget with LRU
// eviction, optionally persisted to a directory so a restarted server
// keeps its hits. All methods are safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	dir     string

	hits, misses uint64
}

type cacheEntry struct {
	key  string
	data []byte
}

// CacheStats is a point-in-time view of the cache counters.
type CacheStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
	Bytes   int64  `json:"bytes"`
	Budget  int64  `json:"budget"`
}

// A persisted entry is framed: frameMagic (whose last byte is the
// format version), the payload length and the payload's CRC-32C, both
// little-endian, then the payload. The frame is checked once, when
// NewCache reloads the file; bytes in memory were written by this
// process and are not checked again.
const (
	frameMagic  = "paco-cache\x00\x02"
	frameHeader = len(frameMagic) + 8 + 4
)

// frame returns data as its persisted file.
func frame(data []byte) []byte {
	f := make([]byte, 0, frameHeader+len(data))
	f = append(f, frameMagic...)
	f = binary.LittleEndian.AppendUint64(f, uint64(len(data)))
	f = binary.LittleEndian.AppendUint32(f, checksum(data))
	return append(f, data...)
}

// checksum is the CRC-32C of data. MakeTable builds the table once, on
// first use, so a server that persists nothing never builds it.
func checksum(data []byte) uint32 {
	return crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli))
}

// unframe returns the payload of a persisted file, or false when the
// file is not a whole, undamaged frame of this format: truncated,
// corrupted, or written by another build.
func unframe(file []byte) ([]byte, bool) {
	if len(file) < frameHeader || string(file[:len(frameMagic)]) != frameMagic {
		return nil, false
	}
	n := binary.LittleEndian.Uint64(file[len(frameMagic):])
	sum := binary.LittleEndian.Uint32(file[len(frameMagic)+8:])
	data := file[frameHeader:]
	if n != uint64(len(data)) || checksum(data) != sum {
		return nil, false
	}
	return data, true
}

// NewCache builds a cache with the given byte budget (<= 0 selects 64
// MiB). When dir is nonempty the cache persists entries there — one file
// per key — and reloads them on construction, oldest first so the LRU
// order survives restarts; entries beyond the budget are evicted (and
// their files removed) during the reload. A file that fails its frame
// check is removed unread: its key's first lookup is an ordinary miss,
// and the result stored after it writes the file afresh.
func NewCache(budget int64, dir string) (*Cache, error) {
	if budget <= 0 {
		budget = 64 << 20
	}
	c := &Cache{
		budget:  budget,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
		dir:     dir,
	}
	if dir == "" {
		return c, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: cache dir: %w", err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("server: cache dir: %w", err)
	}
	type onDisk struct {
		key string
		mod int64
	}
	var files []onDisk
	for _, de := range names {
		if de.IsDir() || !validKey(de.Name()) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		files = append(files, onDisk{key: de.Name(), mod: info.ModTime().UnixNano()})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod < files[j].mod })
	for _, f := range files {
		path := filepath.Join(dir, f.key)
		file, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		data, ok := unframe(file)
		// Refused entries must not linger on disk: a damaged one would
		// be read again at every start, and ones beyond the budget grow
		// the directory without bound across budget changes.
		if !ok || int64(len(data)) > budget {
			_ = os.Remove(path)
			continue
		}
		c.put(f.key, data, false) // already on disk; don't rewrite
	}
	return c, nil
}

// validKey reports whether name looks like a SHA-256 hex digest —
// anything else in the persistence directory is ignored.
func validKey(name string) bool {
	if len(name) != 64 {
		return false
	}
	_, err := hex.DecodeString(name)
	return err == nil
}

// Get returns the stored bytes for key and records a hit or miss. The
// returned slice is shared; callers must not modify it.
func (c *Cache) Get(key string) ([]byte, bool) {
	data, ok := c.Lookup(key)
	c.Count(ok)
	return data, ok
}

// Lookup is Get without the hit/miss accounting, for callers that must
// check the stored bytes before the lookup counts as a hit: they record
// their verdict with Count.
func (c *Cache) Lookup(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).data, true
}

// Count records one lookup outcome.
func (c *Cache) Count(hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if hit {
		c.hits++
	} else {
		c.misses++
	}
}

// Put stores data under key, evicting least-recently-used entries until
// the byte budget holds. An entry larger than the whole budget is not
// stored.
func (c *Cache) Put(key string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(key, data, true)
}

func (c *Cache) put(key string, data []byte, persist bool) {
	if int64(len(data)) > c.budget {
		return
	}
	if el, ok := c.entries[key]; ok {
		// Deterministic results mean equal keys carry equal bytes; just
		// refresh recency (and size, defensively).
		e := el.Value.(*cacheEntry)
		c.bytes += int64(len(data)) - int64(len(e.data))
		e.data = data
		c.lru.MoveToFront(el)
	} else {
		c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, data: data})
		c.bytes += int64(len(data))
	}
	if persist && c.dir != "" {
		// Best effort: a failed write only costs persistence, not
		// correctness.
		_ = os.WriteFile(filepath.Join(c.dir, key), frame(data), 0o644)
	}
	for c.bytes > c.budget {
		oldest := c.lru.Back()
		if oldest == nil {
			break
		}
		e := oldest.Value.(*cacheEntry)
		c.lru.Remove(oldest)
		delete(c.entries, e.key)
		c.bytes -= int64(len(e.data))
		if c.dir != "" {
			_ = os.Remove(filepath.Join(c.dir, e.key))
		}
	}
}

// Stats returns the current counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:    c.hits,
		Misses:  c.misses,
		Entries: len(c.entries),
		Bytes:   c.bytes,
		Budget:  c.budget,
	}
}

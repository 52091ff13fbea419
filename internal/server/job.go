package server

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"paco/internal/campaign"
)

// Job lifecycle: queued -> running -> done|failed. A job created from a
// cache hit is born done.
const (
	stateQueued  = "queued"
	stateRunning = "running"
	stateDone    = "done"
	stateFailed  = "failed"
)

// job is one submitted simulation campaign and its live state. The
// immutable identity fields are set at creation; everything under mu is
// mutated by the executing worker and read by the status, events, and
// metrics handlers.
type job struct {
	id    string
	key   string
	grid  campaign.Grid
	cells int
	// trace correlates the job's spans and logs across processes — set
	// at submission (client-supplied X-Paco-Trace or server-minted) and
	// propagated to federation workers in their shard leases.
	trace string
	// fromCache records how the job was answered at submission: "miss"
	// (simulated), "hit" (served from the content-addressed cache).
	fromCache string

	mu        sync.Mutex
	state     string
	created   time.Time
	started   time.Time
	finished  time.Time
	runner    *campaign.Runner // non-nil while running locally
	cellsDone int              // settled cells of a federated job (runner == nil)
	results   []campaign.Result
	summary   *campaign.Summary
	errMsg    string

	// stored and storedSpec are a cache hit's results array and spec
	// exactly as the cache holds them: the compact JSON a hit's response
	// splices in. They are set before the job is registered and never
	// change, so the POST answering the hit reads them without j.mu.
	// Typed readers decode them into results and grid on first use
	// (resultsLocked, gridLocked).
	stored, storedSpec       json.RawMessage
	decoded, specDecoded     bool
	decodeErr, specDecodeErr error

	subs   map[chan sseEvent]struct{}
	doneCh chan struct{} // closed when the job reaches a terminal state
}

func newJob(id, key string, grid campaign.Grid, cells int, trace string) *job {
	return &job{
		id:        id,
		key:       key,
		grid:      grid,
		cells:     cells,
		trace:     trace,
		fromCache: "miss",
		state:     stateQueued,
		created:   time.Now().UTC(),
		subs:      make(map[chan sseEvent]struct{}),
		doneCh:    make(chan struct{}),
	}
}

// JobStatus is the wire representation of a job — the body of POST
// /v1/jobs responses and GET /v1/jobs/{id}.
type JobStatus struct {
	ID     string        `json:"id"`
	Key    string        `json:"key"`
	Trace  string        `json:"trace,omitempty"`
	Status string        `json:"status"`
	Cache  string        `json:"cache"`
	Spec   campaign.Grid `json:"spec"`

	// Cells reports campaign progress: Total is the grid size, the
	// remaining counts partition it. Done counts settled cells
	// (completed, failed, or skipped); Summary breaks a terminal job's
	// settled cells down by outcome.
	Cells struct {
		Total   int `json:"total"`
		Queued  int `json:"queued"`
		Running int `json:"running"`
		Done    int `json:"done"`
	} `json:"cells"`

	Created  string `json:"created"`
	Started  string `json:"started,omitempty"`
	Finished string `json:"finished,omitempty"`

	Summary *campaign.Summary `json:"summary,omitempty"`
	// Results is included once the job is done (withResults requests).
	Results []campaign.Result `json:"results,omitempty"`
	Error   string            `json:"error,omitempty"`
}

// status snapshots the job. withResults includes the full per-cell
// result slice (job fetches); status streams and listings omit it.
func (j *job) status(withResults bool) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:      j.id,
		Key:     j.key,
		Trace:   j.trace,
		Status:  j.state,
		Cache:   j.fromCache,
		Created: j.created.Format(time.RFC3339Nano),
		Summary: j.summary,
		Error:   j.errMsg,
	}
	var err error
	if st.Spec, err = j.gridLocked(); err != nil {
		st.Error = err.Error()
	}
	if !j.started.IsZero() {
		st.Started = j.started.Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		st.Finished = j.finished.Format(time.RFC3339Nano)
	}
	st.Cells.Total = j.cells
	st.Cells.Queued, st.Cells.Running, st.Cells.Done = j.cellCountsLocked()
	if withResults && j.state == stateDone {
		if st.Results, err = j.resultsLocked(); err != nil {
			st.Error = err.Error()
		}
	}
	return st
}

// cellCountsLocked partitions the job's cells into queued, running and
// done. j.mu must be held.
func (j *job) cellCountsLocked() (queued, running, done int) {
	switch {
	case j.state == stateQueued:
		return j.cells, 0, 0
	case j.runner != nil:
		snap := j.runner.Snapshot()
		return snap.Queued, snap.Running, snap.Done
	case j.state == stateRunning:
		// Federated job: cells settle shard by shard; unfinished shards
		// count as queued (the coordinator cannot see inside a worker).
		return j.cells - j.cellsDone, 0, j.cellsDone
	default:
		return 0, 0, j.cells
	}
}

// appendHead appends the job's status document as writeJSON writes
// j.status(false) — json.Marshal's bytes — up to but not including its
// closing '}', with spec, the spec as json.Marshal writes it, spliced
// in as the spec member. It uses no reflection: the members are few and
// fixed, strings are quoted by appendMarshalString (json.Marshal's
// escaping) and the summary's mean by appendMarshalFloat. writeHit
// continues the document with the results;
// TestHitHeadMatchesMarshalIndent and FuzzHitHead hold it to the
// encoder.
func (j *job) appendHead(b, spec []byte) []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	b = appendMarshalString(append(b, `{"id":`...), j.id)
	b = appendMarshalString(append(b, `,"key":`...), j.key)
	if j.trace != "" {
		b = appendMarshalString(append(b, `,"trace":`...), j.trace)
	}
	b = appendMarshalString(append(b, `,"status":`...), j.state)
	b = appendMarshalString(append(b, `,"cache":`...), j.fromCache)
	b = append(append(b, `,"spec":`...), spec...)
	queued, running, done := j.cellCountsLocked()
	b = strconv.AppendInt(append(b, `,"cells":{"total":`...), int64(j.cells), 10)
	b = strconv.AppendInt(append(b, `,"queued":`...), int64(queued), 10)
	b = strconv.AppendInt(append(b, `,"running":`...), int64(running), 10)
	b = strconv.AppendInt(append(b, `,"done":`...), int64(done), 10)
	b = appendTime(append(b, `},"created":`...), j.created)
	if !j.started.IsZero() {
		b = appendTime(append(b, `,"started":`...), j.started)
	}
	if !j.finished.IsZero() {
		b = appendTime(append(b, `,"finished":`...), j.finished)
	}
	if sum := j.summary; sum != nil {
		b = strconv.AppendInt(append(b, `,"summary":{"jobs":`...), int64(sum.Jobs), 10)
		b = strconv.AppendInt(append(b, `,"completed":`...), int64(sum.Completed), 10)
		b = strconv.AppendInt(append(b, `,"failed":`...), int64(sum.Failed), 10)
		b = strconv.AppendInt(append(b, `,"skipped":`...), int64(sum.Skipped), 10)
		b = strconv.AppendUint(append(b, `,"cycles":`...), sum.Cycles, 10)
		b = strconv.AppendUint(append(b, `,"retired":`...), sum.Retired, 10)
		b = appendMarshalFloat(append(b, `,"mean_ipc":`...), sum.MeanIPC)
		b = append(b, '}')
	}
	if j.errMsg != "" {
		b = appendMarshalString(append(b, `,"error":`...), j.errMsg)
	}
	return b
}

// appendTime appends t as the JSON string of its RFC 3339 form, as the
// status document spells its timestamps; the form needs no escaping.
func appendTime(b []byte, t time.Time) []byte {
	return append(t.AppendFormat(append(b, '"'), time.RFC3339Nano), '"')
}

// appendMarshalString appends s quoted exactly as json.Marshal quotes
// it: '"' and '\\' escaped, control characters as \b, \f, \n, \r, \t or
// \u00XX, '<', '>' and '&' and U+2028 and U+2029 as \u escapes, and each
// byte that is not valid UTF-8 as \ufffd.
func appendMarshalString(dst []byte, s string) []byte {
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
		r, size := utf8.DecodeRuneInString(s[i:])
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

// appendMarshalFloat appends f, which must be finite, as json.Marshal
// spells a float64: the shortest round-trip form, in exponent notation
// only below 1e-6 or from 1e21 on, with a one-digit negative exponent
// not zero-padded.
func appendMarshalFloat(b []byte, f float64) []byte {
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64)
}

// gridLocked returns the job's typed spec, decoding a cache hit's
// stored bytes on first use (at most once). j.mu must be held.
func (j *job) gridLocked() (campaign.Grid, error) {
	if j.storedSpec != nil && !j.specDecoded {
		j.specDecoded = true
		if err := json.Unmarshal(j.storedSpec, &j.grid); err != nil {
			j.specDecodeErr = fmt.Errorf("decoding cached spec: %w", err)
		}
	}
	return j.grid, j.specDecodeErr
}

// resultsLocked returns the job's typed results, decoding a cache hit's
// stored bytes on first use (at most once). j.mu must be held.
func (j *job) resultsLocked() ([]campaign.Result, error) {
	if j.stored != nil && !j.decoded {
		j.decoded = true
		if err := json.Unmarshal(j.stored, &j.results); err != nil {
			j.decodeErr = fmt.Errorf("decoding cached results: %w", err)
		}
	}
	return j.results, j.decodeErr
}

// terminal reports whether the job has settled.
func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == stateDone || j.state == stateFailed
}

// start transitions queued -> running and installs the campaign runner
// whose Snapshot backs live cell counts; a nil runner marks a federated
// job, whose cell counts advance via shardProgress instead.
func (j *job) start(r *campaign.Runner) {
	j.mu.Lock()
	j.state = stateRunning
	j.started = time.Now().UTC()
	j.runner = r
	j.mu.Unlock()
	j.publish("running", j.status(false))
}

// shardProgress relays one completed federation shard to status polls
// and SSE subscribers.
func (j *job) shardProgress(cellsDone int, shardID string) {
	j.mu.Lock()
	j.cellsDone = cellsDone
	total := j.cells
	j.mu.Unlock()
	ev := struct {
		Done  int    `json:"done"`
		Total int    `json:"total"`
		Shard string `json:"shard"`
	}{Done: cellsDone, Total: total, Shard: shardID}
	j.publish("progress", ev)
}

// resultsIfDone returns the job's result slice once it completed; err
// reports cached results that do not decode.
func (j *job) resultsIfDone() (results []campaign.Result, done bool, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != stateDone {
		return nil, false, nil
	}
	results, err = j.resultsLocked()
	return results, true, err
}

// progress relays one campaign progress callback to SSE subscribers.
func (j *job) progress(done, total int, r *campaign.Result) {
	ev := struct {
		Done  int     `json:"done"`
		Total int     `json:"total"`
		Cell  string  `json:"cell"`
		IPC   float64 `json:"ipc,omitempty"`
		Error string  `json:"error,omitempty"`
	}{Done: done, Total: total, Cell: r.JobID, IPC: r.IPC, Error: r.Err}
	j.publish("progress", ev)
}

// complete transitions to done with the campaign's results.
func (j *job) complete(results []campaign.Result, summary campaign.Summary) {
	j.mu.Lock()
	j.state = stateDone
	j.finished = time.Now().UTC()
	j.runner = nil
	j.results = results
	j.summary = &summary
	j.mu.Unlock()
	close(j.doneCh)
}

// fail transitions to failed. summary, when non-nil, records how far
// the campaign got (completed vs failed vs skipped cells) so a failed
// job doesn't read as if every cell simulated.
func (j *job) fail(msg string, summary *campaign.Summary) {
	j.mu.Lock()
	j.state = stateFailed
	j.finished = time.Now().UTC()
	j.runner = nil
	j.errMsg = msg
	j.summary = summary
	j.mu.Unlock()
	close(j.doneCh)
}

// completeFromCache marks a freshly created job as answered by the
// content-addressed cache: born done, no simulation behind it. The
// stored results and spec stay undecoded until a typed reader needs
// them.
func (j *job) completeFromCache(hit *storedHit) {
	j.mu.Lock()
	j.fromCache = "hit"
	j.state = stateDone
	now := time.Now().UTC()
	j.started, j.finished = now, now
	j.stored, j.storedSpec = hit.results, hit.spec
	j.summary = &hit.summary
	j.mu.Unlock()
	close(j.doneCh)
}

// sseEvent is one server-sent event: a name and a JSON-encoded payload.
type sseEvent struct {
	name string
	data []byte
}

// subscribe registers an SSE listener. The returned channel is buffered;
// slow listeners lose intermediate progress events but never the
// terminal state, which the events handler reads from doneCh + status.
func (j *job) subscribe() (<-chan sseEvent, func()) {
	ch := make(chan sseEvent, 64)
	j.mu.Lock()
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	cancel := func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
	return ch, cancel
}

// publish fans an event out to subscribers, dropping on full buffers so
// simulation workers never block on a stalled client.
func (j *job) publish(name string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		return
	}
	ev := sseEvent{name: name, data: data}
	j.mu.Lock()
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	j.mu.Unlock()
}

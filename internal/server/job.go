package server

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

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

	// stored is a cache hit's results array exactly as the cache holds
	// it (compact JSON). It is set before the job is registered and never
	// changes, so the POST answering the hit reads it without j.mu.
	// Typed readers decode it into results on first use (resultsLocked).
	stored    json.RawMessage
	decoded   bool
	decodeErr error

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
		Spec:    j.grid,
		Created: j.created.Format(time.RFC3339Nano),
		Summary: j.summary,
		Error:   j.errMsg,
	}
	if !j.started.IsZero() {
		st.Started = j.started.Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		st.Finished = j.finished.Format(time.RFC3339Nano)
	}
	st.Cells.Total = j.cells
	switch {
	case j.state == stateQueued:
		st.Cells.Queued = j.cells
	case j.runner != nil:
		snap := j.runner.Snapshot()
		st.Cells.Queued = snap.Queued
		st.Cells.Running = snap.Running
		st.Cells.Done = snap.Done
	case j.state == stateRunning:
		// Federated job: cells settle shard by shard; unfinished shards
		// count as queued (the coordinator cannot see inside a worker).
		st.Cells.Done = j.cellsDone
		st.Cells.Queued = j.cells - j.cellsDone
	default:
		st.Cells.Done = j.cells
	}
	if withResults && j.state == stateDone {
		var err error
		if st.Results, err = j.resultsLocked(); err != nil {
			st.Error = err.Error()
		}
	}
	return st
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
// stored results stay undecoded until a typed reader needs them.
func (j *job) completeFromCache(stored json.RawMessage, summary campaign.Summary) {
	j.mu.Lock()
	j.fromCache = "hit"
	j.state = stateDone
	now := time.Now().UTC()
	j.started, j.finished = now, now
	j.stored = stored
	j.summary = &summary
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

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// sessionClients is the closed-loop streamer count: each opens, streams,
// reads and closes one session at a time.
const sessionClients = 2

func runSessionsDirect(ctx context.Context, p *pass) error {
	return runSessions(ctx, p, plainServer)
}

// runSessionsRouted sends the identical traffic through a session-routing
// coordinator and two session workers: the proxy hop and the journal
// are the only difference from runSessionsDirect.
func runSessionsRouted(ctx context.Context, p *pass) error {
	return runSessions(ctx, p, sessionRouter)
}

// sessionStats are the per-request observations of one pass.
type sessionStats struct {
	chunks atomic.Int64
	scores samples // ms, GET scores
	close  samples // ms, DELETE
}

func runSessions(ctx context.Context, p *pass, top topology) error {
	inputs, err := sessionPlan(p.seed, sessionInputs)
	if err != nil {
		return err
	}
	c, err := startCluster(top, p.tr)
	if err != nil {
		return err
	}
	defer c.close()

	var (
		next atomic.Int64
		st   sessionStats
		wg   sync.WaitGroup
	)
	p.begin()
	end := p.start.Add(p.budget)
	for k := 0; k < sessionClients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for time.Now().Before(end) && ctx.Err() == nil {
				in := inputs[int(next.Add(1)-1)%len(inputs)]
				if _, ok := streamSession(client, c.url(), p, in, &st, &p.ops, nil); ok {
					p.completed(float64(in.Events))
				}
			}
		}()
	}
	wg.Wait()
	p.finish()
	if len(p.rounds.all()) == 0 {
		return errNoWork
	}
	chunks := p.ops.all()
	p.detail["events_per_s"] = p.rate()
	p.detail["chunk_p50_ms"] = quantile(chunks, 0.5)
	p.detail["chunk_p99_ms"] = quantile(chunks, 0.99)
	p.detail["chunks"] = float64(len(chunks))
	p.detail["scores_p50_ms"] = median(st.scores.values())
	p.detail["scores"] = float64(st.scores.n())
	p.detail["sessions"] = float64(len(p.rounds.all()))

	if p.tr == nil {
		return nil
	}
	retryShare := float64(p.retried) / float64(st.chunks.Load())
	if top == plainServer {
		p.setLayer("session.close_ms_p50", median(st.close.values()))
		p.setLayer("session.scores_ms_p50", median(st.scores.values()))
		p.setLayer("session.retry_share", retryShare)
		p.setLayer("session.http_events_per_s", p.rate())
		return nil
	}
	p.setLayer("session.routed_close_ms_p50", median(st.close.values()))
	p.setLayer("session.routed_retry_share", retryShare)
	if err := routedProbe(c, p, inputs); err != nil {
		p.problem("routed probe: %v", err)
	}
	return nil
}

// streamSession runs one session's lifecycle: open, stream the input in
// chunks with a scores read every few chunks, close, and compare the
// final scores with offline replay. 429s are retried with the identical
// bytes and counted as retries, not failures. beforeClose, when non-nil,
// runs after the last chunk is accepted. It returns the owning worker's
// name (empty on a plain server).
func streamSession(client *http.Client, base string, p *pass, in sessionInput, st *sessionStats, chunkMS *kinded, beforeClose func() error) (string, bool) {
	root := p.tr.begin(0, 0, "client.session")
	defer root.end()
	start := time.Now()

	p.attempt(1)
	sp := p.tr.begin(root.trace(), root.id(), "client.open")
	code, body, err := do(client, http.MethodPost, base+"/v1/sessions", "application/json", in.SpecJSON)
	sp.end()
	var opened struct{ ID, Worker string }
	if err == nil && code == http.StatusCreated {
		err = json.Unmarshal(body, &opened)
	}
	if err != nil || code != http.StatusCreated {
		p.fail("open: HTTP %d: %v", code, err)
		return "", false
	}
	url := base + "/v1/sessions/" + opened.ID

	for off, n := 0, 0; off < len(in.Payload); n++ {
		chunk := in.Payload[off:min(off+in.Chunk, len(in.Payload))]
		off += len(chunk)
		if !ingest(client, url, p, root, in, chunk, st, chunkMS) {
			return opened.Worker, false
		}
		if n%scoresEvery == scoresEvery-1 {
			p.attempt(1)
			sp := p.tr.begin(root.trace(), root.id(), "client.scores")
			t := time.Now()
			code, _, err := do(client, http.MethodGet, url+"/scores", "", nil)
			sp.end()
			if err != nil || code != http.StatusOK {
				p.fail("scores: HTTP %d: %v", code, err)
				return opened.Worker, false
			}
			st.scores.addSince(t, time.Millisecond)
		}
	}

	if beforeClose != nil {
		if err := beforeClose(); err != nil {
			p.fail("%v", err)
			return opened.Worker, false
		}
	}
	p.attempt(1)
	sp = p.tr.begin(root.trace(), root.id(), "client.close")
	t := time.Now()
	code, final, err := do(client, http.MethodDelete, url, "", nil)
	sp.end()
	if err != nil || code != http.StatusOK {
		p.fail("close: HTTP %d: %v", code, err)
		return opened.Worker, false
	}
	st.close.addSince(t, time.Millisecond)
	if !bytes.Equal(final, in.Want) {
		p.fail("final scores differ from offline replay:\n got %s\nwant %s", final, in.Want)
		return opened.Worker, false
	}
	p.rounds.addSince(in.kind(), start, time.Second)
	return opened.Worker, true
}

// ingest posts one chunk until it is accepted.
func ingest(client *http.Client, url string, p *pass, root *open, in sessionInput, chunk []byte, st *sessionStats, chunkMS *kinded) bool {
	p.attempt(1)
	st.chunks.Add(1)
	for {
		sp := p.tr.begin(root.trace(), root.id(), "client.ingest")
		t := time.Now()
		code, _, err := do(client, http.MethodPost, url+"/events", in.contentType(), chunk)
		sp.end()
		switch {
		case err == nil && code == http.StatusAccepted:
			chunkMS.addSince(in.kind(), t, time.Millisecond)
			return true
		case err == nil && code == http.StatusTooManyRequests:
			p.retry()
			time.Sleep(2 * time.Millisecond)
		default:
			p.fail("ingest: HTTP %d: %v", code, err)
			return false
		}
	}
}

// do sends one request and reads the whole response body, so the
// connection is reused.
func do(client *http.Client, method, url, contentType string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// routedProbe runs after a traced routed pass, one session at a time.
// For each input it streams a session through the coordinator and then
// the same input straight to the worker that owned it, so the chunk
// latency difference is the proxy hop. Before each routed close it
// reads the coordinator's journal gauge, which then holds exactly that
// session's journal.
func routedProbe(c *cluster, p *pass, inputs []sessionInput) error {
	owners := map[string]string{}
	for i, w := range c.workers {
		owners[fmt.Sprintf("w%d", i+1)] = w.sessHTTP.URL
	}
	client := newClient()
	defer client.CloseIdleConnections()
	var routed, direct kinded
	var journal, events float64
	probe := newPass(p.seed, 0, nil)
	for _, in := range inputs[:8] {
		var st sessionStats
		readJournal := func() error {
			v, err := scrapeGauge(client, c.url(), "paco_session_routed_journal_bytes")
			journal += v
			return err
		}
		worker, ok := streamSession(client, c.url(), probe, in, &st, &routed, readJournal)
		if !ok {
			return fmt.Errorf("routed session failed: %v", probe.problems)
		}
		events += float64(in.Events)
		owner, found := owners[worker]
		if !found {
			return fmt.Errorf("session owned by unknown worker %q", worker)
		}
		if _, ok := streamSession(client, owner, probe, in, &st, &direct, nil); !ok {
			return fmt.Errorf("direct session failed: %v", probe.problems)
		}
	}
	p.setLayer("server.proxy_hop_ms_p50", routed.summary()-direct.summary())
	p.setLayer("session.journal_bytes_per_event", journal/events)
	return nil
}

// scrapeGauge reads one unlabeled sample from a server's /metrics.
func scrapeGauge(client *http.Client, base, name string) (float64, error) {
	code, body, err := do(client, http.MethodGet, base+"/metrics", "", nil)
	if err != nil || code != http.StatusOK {
		return 0, fmt.Errorf("metrics: HTTP %d: %v", code, err)
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("metrics: no sample %s", name)
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"paco/internal/campaign"
	"paco/internal/server"
)

// sweepClients is the closed-loop client count; each waits for its job
// to finish before submitting the next.
const sweepClients = 2

// fillShare is the part of the budget spent submitting fresh grids; the
// rest resubmits them as cache hits.
const fillShare = 0.6

// minHits is how many resubmissions the read pass makes even when the
// fill pass used up the budget, so every pass measures the read path.
const minHits = 20

// runSweep drives a federation coordinator (Shards=2) and two
// simulation workers through two passes. The fill pass submits fresh
// seeded grids: admission, shard leases, the batched kernel and the
// merge. The read pass resubmits the same grids: pure cache hits.
func runSweep(ctx context.Context, p *pass) error {
	c, err := startCluster(federation, p.tr)
	if err != nil {
		return err
	}
	defer c.close()

	var (
		next   atomic.Int64
		admit  samples // ms, miss POST → 202
		mu     sync.Mutex
		filled []int // grid indices whose fill job completed
	)
	p.begin()
	fillEnd := p.start.Add(time.Duration(fillShare * float64(p.budget)))
	var wg sync.WaitGroup
	for k := 0; k < sweepClients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for time.Now().Before(fillEnd) && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if n, ok := fillOne(client, c.url(), p, i, &admit); ok {
					p.completed(float64(n))
					mu.Lock()
					filled = append(filled, i)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	p.finish()
	if len(filled) == 0 {
		return errNoWork
	}

	specs := make([][]byte, len(filled))
	for j, i := range filled {
		specs[j] = sweepSpec(p.seed, i)
	}
	end := p.start.Add(p.budget)
	for k := 0; k < sweepClients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for j := k; (j < minHits || time.Now().Before(end)) && ctx.Err() == nil; j += sweepClients {
				g := j % len(specs)
				resubmit(client, c.url(), p, gridKind(filled[g]), specs[g])
			}
		}(k)
	}
	wg.Wait()

	jobs := p.rounds.all()
	hits := p.ops.all()
	p.detail["cells_per_s"] = p.rate()
	p.detail["job_p50_s"] = median(jobs)
	p.detail["jobs"] = float64(len(jobs))
	p.detail["hit_p50_ms"] = quantile(hits, 0.5)
	p.detail["hit_p99_ms"] = quantile(hits, 0.99)
	p.detail["hits"] = float64(len(hits))

	if got := c.srv.SimulationsRun(); got != uint64(len(filled)) {
		p.problem("server simulated %d campaigns for %d distinct grids", got, len(filled))
	}
	rms, err := checkSweepResults(ctx, c, p, filled)
	if err != nil {
		p.problem("%v", err)
	}
	p.detail["rms_error"] = rms

	if p.tr != nil {
		sweepLayers(c, p, specs, admit.values())
	}
	return nil
}

// fillOne submits fresh grid i, waits for it over SSE, and reports its
// cell count.
func fillOne(client *http.Client, base string, p *pass, i int, admit *samples) (int, bool) {
	p.attempt(1)
	root := p.tr.begin(0, 0, "client.job")
	defer root.end()
	start := time.Now()
	sp := p.tr.begin(root.trace(), root.id(), "client.submit")
	st, code, err := postJob(client, base, sweepSpec(p.seed, i))
	sp.end()
	admit.addSince(start, time.Millisecond)
	if err != nil || code != http.StatusAccepted || st.Cache != "miss" {
		p.fail("grid %d: submit: HTTP %d cache %q: %v", i, code, st.Cache, err)
		return 0, false
	}
	sp = p.tr.begin(root.trace(), root.id(), "client.await")
	final, err := awaitJob(client, base, st.ID)
	sp.end()
	if err != nil {
		p.fail("grid %d: %v", i, err)
		return 0, false
	}
	if final.Status != "done" || final.Summary == nil || final.Summary.Failed != 0 || final.Summary.Skipped != 0 {
		p.fail("grid %d: job %s ended %q (%s)", i, final.ID, final.Status, final.Error)
		return 0, false
	}
	p.rounds.addSince(gridKind(i), start, time.Second)
	return final.Cells.Total, true
}

// resubmit POSTs an already-simulated grid; the server must answer it
// from the cache. It decodes only the two fields it checks, so decoding
// the results the hit carries adds no client work to the measured path.
func resubmit(client *http.Client, base string, p *pass, kind string, spec []byte) {
	p.attempt(1)
	sp := p.tr.begin(0, 0, "client.resubmit")
	start := time.Now()
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		sp.end()
		p.fail("resubmit: %v", err)
		return
	}
	var st struct{ Status, Cache string }
	err = json.NewDecoder(resp.Body).Decode(&st)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	sp.end()
	if err != nil || resp.StatusCode != http.StatusOK || st.Cache != "hit" || st.Status != "done" {
		p.fail("resubmit: HTTP %d cache %q status %q: %v", resp.StatusCode, st.Cache, st.Status, err)
		return
	}
	p.ops.addSince(kind, start, time.Millisecond)
}

func postJob(client *http.Client, base string, spec []byte) (server.JobStatus, int, error) {
	var st server.JobStatus
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	io.Copy(io.Discard, resp.Body)
	return st, resp.StatusCode, err
}

// awaitJob follows GET /v1/jobs/{id}/events until the terminal event
// and returns the status it carries.
func awaitJob(client *http.Client, base, id string) (server.JobStatus, error) {
	var st server.JobStatus
	resp, err := client.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	rd := bufio.NewReader(resp.Body)
	event := ""
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			return st, fmt.Errorf("events for %s ended without a terminal event: %w", id, err)
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && (event == "done" || event == "failed"):
			err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st)
			io.Copy(io.Discard, rd)
			return st, err
		}
	}
}

// checkSweepResults runs outside the timed window. It resubmits every
// filled grid (cache hits carry the full results) to take the mean PaCo
// RMS error over all cells, and byte-compares the first grid's
// GET /v1/jobs/{id}/results with campaign.WriteJSON of a local run of
// the same grid.
func checkSweepResults(ctx context.Context, c *cluster, p *pass, filled []int) (float64, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	var rmsSum float64
	var n int
	var firstID string
	for _, i := range filled {
		st, code, err := postJob(client, c.url(), sweepSpec(p.seed, i))
		if err != nil || code != http.StatusOK || st.Cache != "hit" {
			return 0, fmt.Errorf("grid %d: re-read: HTTP %d cache %q: %v", i, code, st.Cache, err)
		}
		if firstID == "" {
			firstID = st.ID
		}
		for _, r := range st.Results {
			if r.Failed() {
				return 0, fmt.Errorf("grid %d: cell %s failed: %s", i, r.JobID, r.Err)
			}
			rmsSum += r.Extra["rms_error"]
			n++
		}
	}
	resp, err := client.Get(c.url() + "/v1/jobs/" + firstID + "/results")
	if err != nil {
		return 0, err
	}
	served, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("results of %s: HTTP %d: %v", firstID, resp.StatusCode, err)
	}
	grid, err := sweepGrid(p.seed, filled[0]).Normalized()
	if err != nil {
		return 0, err
	}
	local, err := campaign.Run(ctx, 2, grid.Jobs())
	if err != nil {
		return 0, fmt.Errorf("local run of grid %d: %w", filled[0], err)
	}
	var want bytes.Buffer
	if err := campaign.WriteJSON(&want, local); err != nil {
		return 0, err
	}
	if !bytes.Equal(served, want.Bytes()) {
		return 0, fmt.Errorf("grid %d: federated results differ from a local run (%d vs %d bytes)",
			filled[0], len(served), want.Len())
	}
	return rmsSum / float64(n), nil
}

// sweepLayers fills the server, federation and campaign layer metrics of
// a traced sweep pass.
func sweepLayers(c *cluster, p *pass, specs [][]byte, admit []float64) {
	p.setLayer("server.admit_ms_p50", median(admit))
	var norm []float64
	for _, spec := range specs {
		start := time.Now()
		var g campaign.Grid
		if err := json.Unmarshal(spec, &g); err != nil {
			p.problem("normalize: %v", err)
			return
		}
		n, err := g.Normalized()
		if err != nil {
			p.problem("normalize: %v", err)
			return
		}
		raw, err := json.Marshal(n)
		if err == nil {
			_, err = server.CanonicalJSON(raw)
		}
		if err != nil {
			p.problem("canonical JSON: %v", err)
			return
		}
		norm = append(norm, float64(time.Since(start))/float64(time.Microsecond))
	}
	p.setLayer("server.normalize_us_p50", median(norm))
	cs := c.srv.CacheStats()
	p.setLayer("server.cache_hits", float64(cs.Hits))
	p.setLayer("server.cache_misses", float64(cs.Misses))
	p.setLayer("server.simulations", float64(c.srv.SimulationsRun()))

	f := c.fed
	p.setLayer("server.lease_polls", float64(f.polls.Load()))
	p.setLayer("server.lease_grant_ratio", float64(f.grants.Load())/float64(f.polls.Load()))
	p.setLayer("server.lease_rtt_ms_p50", median(f.leaseRTT.values()))
	p.setLayer("server.result_post_ms_p50", median(f.resultRTT.values()))
	shards := f.shard.values()
	p.setLayer("server.shard_s_p50", median(shards))

	h := c.hooks
	p.setLayer("server.fed_overhead_share", 1-h.simDuration.Sum()/sum(shards))
	p.setLayer("campaign.cell_s_p50", h.simDuration.Quantile(0.5))
	p.setLayer("campaign.queue_wait_s_p50", h.queueWait.Quantile(0.5))
	p.setLayer("campaign.batch_size_mean", h.batchSize.Sum()/float64(h.batchSize.Count()))
	batched, single := float64(h.batchedCells.Value()), float64(h.singletons.Value())
	p.setLayer("campaign.singleton_share", single/(batched+single))
}

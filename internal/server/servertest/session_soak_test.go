package servertest_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"paco/internal/server"
	"paco/internal/session"
	"paco/internal/trace"
)

// soakSpec is the estimator set every soak session runs: one dynamic
// PaCo and one count baseline — enough to exercise both estimator score
// shapes without making -race apply cost dominate the test.
const soakSpec = `{"estimators":[{"kind":"paco","refresh":128},{"kind":"count"}]}`

// soakEvents synthesizes one client's deterministic event stream — the
// session package's shared generator, so the soak, the routing chaos
// suite, and the paco-obs load generator all stream the same shape.
func soakEvents(seed int64, n int) []trace.Event {
	return session.SyntheticEvents(seed, n)
}

func soakTraceBytes(t *testing.T, evs []trace.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// metricValue extracts one sample's value from an exposition scrape.
func metricValue(body, series string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v, true
			}
		}
	}
	return 0, false
}

// histogramQuantile estimates a quantile from exposition bucket lines:
// the upper bound of the first cumulative bucket covering q of the
// observations (the standard exposition-side estimate).
func histogramQuantile(body, family string, q float64) (float64, uint64) {
	type bucket struct {
		le    float64
		count uint64
	}
	var buckets []bucket
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, family+`_bucket{le="`)
		if !ok {
			continue
		}
		le, rest, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		bound, err1 := strconv.ParseFloat(le, 64)
		if le == "+Inf" {
			bound, err1 = 1e308, nil
		}
		n, err2 := strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
		if err1 != nil || err2 != nil {
			continue
		}
		buckets = append(buckets, bucket{bound, n})
	}
	if len(buckets) == 0 {
		return 0, 0
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	total := buckets[len(buckets)-1].count
	want := uint64(q * float64(total))
	for _, b := range buckets {
		if b.count >= want {
			return b.le, total
		}
	}
	return buckets[len(buckets)-1].le, total
}

// TestSessionSoak is the subsystem's load-and-leak gate: well over 100
// concurrent live sessions streaming simultaneously through real HTTP,
// every final score byte-identical to offline replay, backpressure
// engaging (429s observed and retried losslessly, matching the exported
// counter), abandoned sessions evicted by the idle sweeper, and zero
// goroutine leaks once the server closes. It logs sessions/sec,
// events/sec, and ingest p99 as read from /metrics. Run under -race this
// is the PR's soak acceptance test.
func TestSessionSoak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s, err := server.New(server.Config{
		JobWorkers: 1, CacheBytes: 1 << 20,
		SessionShards:      8,
		SessionMaxOpen:     512,
		SessionQueueEvents: 512,
		SessionTTL:         3 * time.Second,
		SessionSweep:       100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())

	const (
		clients      = 120  // concurrent sessions (acceptance floor is 100)
		eventsPer    = 2000 // per streaming client
		chunkSize    = 997  // bytes; coprime with the 23-byte record size
		abandonEvery = 4    // every 4th client leaves its session to the sweeper
		// The contended session: posters share one stream of commuting
		// cycle events, chunks bigger than the queue cap, so whoever
		// beats the shard worker to the lock is backpressured.
		hotPosters, hotRounds, hotChunkEvents = 8, 40, 600
	)

	var spec session.Spec
	if err := json.Unmarshal([]byte(soakSpec), &spec); err != nil {
		t.Fatal(err)
	}

	openOne := func(body string) (string, error) {
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusCreated {
			return "", fmt.Errorf("open → %d: %s", resp.StatusCode, raw)
		}
		var opened struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(raw, &opened); err != nil {
			return "", err
		}
		return opened.ID, nil
	}

	// Phase 1: open every session up front, so the table demonstrably
	// holds >= clients+1 concurrent sessions before any of them streams.
	ids := make([]string, clients)
	for c := range ids {
		id, err := openOne(soakSpec)
		if err != nil {
			t.Fatal(err)
		}
		ids[c] = id
	}
	hotID, err := openOne(soakSpec)
	if err != nil {
		t.Fatal(err)
	}
	if open, ok := metricValue(scrapeMetrics(t, ts), "paco_session_open"); !ok || open < clients {
		t.Fatalf("paco_session_open = %v (found %v), want >= %d concurrent sessions", open, ok, clients)
	}

	// Phase 2: everything streams at once.
	start := time.Now()
	var rejected, eventsSent atomic.Int64
	post := func(id string, contentType string, chunk []byte) (int, error) {
		for retries := 0; ; retries++ {
			resp, err := http.Post(ts.URL+"/v1/sessions/"+id+"/events", contentType, bytes.NewReader(chunk))
			if err != nil {
				return 0, err
			}
			retryAfter := resp.Header.Get("Retry-After")
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusAccepted:
				return resp.StatusCode, nil
			case http.StatusTooManyRequests:
				if retryAfter == "" {
					return 0, fmt.Errorf("429 without Retry-After")
				}
				if retries == max429Retries {
					return 0, fmt.Errorf("ingest %s still 429 after %d retries", id, retries)
				}
				rejected.Add(1)
				time.Sleep(time.Millisecond) // then retry the identical bytes
			default:
				return 0, fmt.Errorf("ingest %s → %d", id, resp.StatusCode)
			}
		}
	}

	errs := make(chan error, clients+hotPosters)
	for c := 0; c < clients; c++ {
		go func(c int) {
			errs <- func() error {
				evs := soakEvents(int64(1000+c), eventsPer)
				raw := soakTraceBytes(t, evs)
				for off := 0; off < len(raw); {
					end := off + chunkSize
					if end > len(raw) {
						end = len(raw)
					}
					if _, err := post(ids[c], "application/octet-stream", raw[off:end]); err != nil {
						return fmt.Errorf("client %d: %w", c, err)
					}
					off = end
				}
				eventsSent.Add(eventsPer)
				if c%abandonEvery == 0 {
					return nil // abandoned: the idle sweeper must reap it
				}
				// Offline reference: the DELETE body must be byte-identical.
				r, err := trace.NewReader(bytes.NewReader(raw))
				if err != nil {
					return err
				}
				offline, err := session.Replay(r, spec)
				if err != nil {
					return err
				}
				want, err := json.MarshalIndent(offline, "", "  ")
				if err != nil {
					return err
				}
				want = append(want, '\n')
				// The queue must drain before close for a Queued-free final
				// doc; DELETE itself drains too, so close immediately.
				req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+ids[c], nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					return err
				}
				got, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					return fmt.Errorf("client %d: close → %d: %s", c, resp.StatusCode, got)
				}
				if !bytes.Equal(got, want) {
					return fmt.Errorf("client %d: streamed scores differ from offline replay:\n got %s\nwant %s", c, got, want)
				}
				return nil
			}()
		}(c)
	}
	hotChunk := func() []byte {
		var buf bytes.Buffer
		for i := 0; i < hotChunkEvents; i++ {
			fmt.Fprintf(&buf, "{\"kind\":\"cycle\",\"cycle\":%d}\n", 64*(i+1))
		}
		return buf.Bytes()
	}()
	for p := 0; p < hotPosters; p++ {
		go func() {
			errs <- func() error {
				for r := 0; r < hotRounds; r++ {
					if _, err := post(hotID, "application/x-ndjson", hotChunk); err != nil {
						return fmt.Errorf("hot poster: %w", err)
					}
					eventsSent.Add(hotChunkEvents)
				}
				return nil
			}()
		}()
	}
	for i := 0; i < clients+hotPosters; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)

	if rejected.Load() == 0 {
		t.Error("backpressure never engaged: no 429 observed during the soak")
	}

	// The hot session: all posters' chunks survived their retries.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+hotID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var hotFinal session.Scores
	err = json.NewDecoder(resp.Body).Decode(&hotFinal)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(hotPosters * hotRounds * hotChunkEvents); hotFinal.Events != want {
		t.Errorf("hot session applied %d events, want %d (acknowledged chunks lost or duplicated)", hotFinal.Events, want)
	}

	// Phase 3: the sweeper reaps the abandoned quarter.
	abandoned := (clients + abandonEvery - 1) / abandonEvery
	deadline := time.Now().Add(30 * time.Second)
	var body string
	for {
		body = scrapeMetrics(t, ts)
		if open, ok := metricValue(body, "paco_session_open"); ok && open == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sessions never fully evicted:\n%s", body)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if v, _ := metricValue(body, `paco_session_closed_total{reason="evicted"}`); v != float64(abandoned) {
		t.Errorf(`closed_total{reason="evicted"} = %v, want %d`, v, abandoned)
	}
	if v, _ := metricValue(body, `paco_session_closed_total{reason="client"}`); v != float64(clients-abandoned+1) {
		t.Errorf(`closed_total{reason="client"} = %v, want %d`, v, clients-abandoned+1)
	}
	if v, _ := metricValue(body, "paco_session_backpressure_total"); v != float64(rejected.Load()) {
		t.Errorf("backpressure counter %v does not match the %d observed 429s", v, rejected.Load())
	}
	if v, _ := metricValue(body, "paco_session_events_total"); v != float64(eventsSent.Load()) {
		t.Errorf("events counter %v, want %d acknowledged events", v, eventsSent.Load())
	}

	// The soak report, from the same exposition an operator would read.
	p99, ingests := histogramQuantile(body, "paco_session_ingest_duration_seconds", 0.99)
	t.Logf("soak: %d sessions in %.2fs (%.0f sessions/sec), %d events (%.0f events/sec), %d ingest calls p99 <= %.4fs, %d backpressure 429s",
		clients+1, elapsed.Seconds(), float64(clients+1)/elapsed.Seconds(),
		eventsSent.Load(), float64(eventsSent.Load())/elapsed.Seconds(),
		ingests, p99, rejected.Load())

	// Phase 4: shut everything down and prove nothing leaked.
	ts.Close()
	s.Close()
	leakDeadline := time.Now().Add(15 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d alive, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

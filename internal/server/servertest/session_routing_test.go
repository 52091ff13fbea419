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
	"strings"
	"testing"
	"time"

	"paco/internal/server"
	"paco/internal/server/servertest"
	"paco/internal/session"
	"paco/internal/trace"
)

// openRouted opens a session through a routing coordinator, retrying
// while the federation has no live session workers yet (workers
// advertise their endpoints through lease polls, so the first poll has
// to land before the router can place anything).
func openRouted(t *testing.T, base, spec string) (id, worker string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Post(base+"/v1/sessions", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusCreated {
			var opened struct {
				ID     string `json:"id"`
				Worker string `json:"worker"`
			}
			if err := json.Unmarshal(raw, &opened); err != nil {
				t.Fatal(err)
			}
			if opened.Worker == "" {
				t.Fatalf("routed open did not name an owning worker: %s", raw)
			}
			return opened.ID, opened.Worker
		}
		if resp.StatusCode != http.StatusServiceUnavailable || time.Now().After(deadline) {
			t.Fatalf("routed open → %d: %s", resp.StatusCode, raw)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// max429Retries bounds how often one ingest chunk is resent on 429
// backpressure, about 10 s of the tests' 1 ms retry sleeps: a server
// stuck answering 429 fails the test instead of hanging the suite.
// (session.Stream.PostChunk waits the server's whole-second Retry-After,
// which would stretch the soak test's dozens of 429s by seconds each.)
const max429Retries = 10_000

// postRouted posts one ingest chunk, retrying 429 backpressure with the
// identical bytes at most max429Retries times.
func postRouted(base, id, contentType string, chunk []byte) error {
	for retries := 0; ; retries++ {
		resp, err := http.Post(base+"/v1/sessions/"+id+"/events", contentType, bytes.NewReader(chunk))
		if err != nil {
			return err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			return nil
		case http.StatusTooManyRequests:
			if retries == max429Retries {
				return fmt.Errorf("ingest still 429 after %d retries: %s", retries, body)
			}
			time.Sleep(time.Millisecond)
		default:
			return fmt.Errorf("ingest → %d: %s", resp.StatusCode, body)
		}
	}
}

// TestSessionRoutingFailover is the tentpole acceptance test: a routed
// session streaming through a 3-worker federation has its owning worker
// killed mid-stream — connections severed, no drain — and must finish
// with final scores byte-identical to an uninterrupted offline replay
// of the same events, its live SSE stream intact through the failover
// and terminated by the "final" frame, and no goroutine left behind.
func TestSessionRoutingFailover(t *testing.T) {
	baseline := runtime.NumGoroutine()
	c := servertest.New(t, servertest.Config{
		Workers:        3,
		SessionWorkers: true,
		Server: server.Config{
			JobWorkers: 1,
			CacheBytes: 1 << 20,
			// Routed-session coordinator; TTLs stay at their defaults
			// (5m), far above the test's runtime, so failover — not
			// eviction — is the only close path in play.
			RouteSessions: true,
		},
	})

	var spec session.Spec
	if err := json.Unmarshal([]byte(soakSpec), &spec); err != nil {
		t.Fatal(err)
	}
	evs := soakEvents(424242, 20000)
	raw := soakTraceBytes(t, evs)

	id, owner := openRouted(t, c.URL(), soakSpec)
	t.Logf("session %s owned by %s", id, owner)

	// Subscribe to the live stream before any events flow; the terminal
	// "final" frame must arrive even though the owner dies mid-stream.
	finalCh := make(chan session.Scores, 1)
	sseErr := make(chan error, 1)
	go func() {
		sseErr <- func() error {
			resp, err := http.Get(c.URL() + "/v1/sessions/" + id + "/live")
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("live → %d", resp.StatusCode)
			}
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
			var name, data string
			for sc.Scan() {
				line := sc.Text()
				switch {
				case strings.HasPrefix(line, "event: "):
					name = strings.TrimPrefix(line, "event: ")
				case strings.HasPrefix(line, "data: "):
					data = strings.TrimPrefix(line, "data: ")
				case line == "" && name == "final":
					var final session.Scores
					if err := json.Unmarshal([]byte(data), &final); err != nil {
						return err
					}
					finalCh <- final
					return nil
				}
			}
			return fmt.Errorf("live stream ended without a final frame: %v", sc.Err())
		}()
	}()

	// Stream in record-misaligned chunks; kill the owner halfway. Every
	// chunk acknowledged before the kill is in the coordinator's journal
	// and must survive into the replayed session.
	const chunkSize = 997
	killAt := len(raw) / 2
	killed := false
	for off := 0; off < len(raw); {
		end := off + chunkSize
		if end > len(raw) {
			end = len(raw)
		}
		if !killed && off >= killAt {
			c.KillWorker(owner)
			killed = true
		}
		if err := postRouted(c.URL(), id, "application/octet-stream", raw[off:end]); err != nil {
			t.Fatalf("chunk at %d (killed=%v): %v", off, killed, err)
		}
		off = end
	}
	if !killed {
		t.Fatal("owner was never killed; trace too small")
	}

	// Offline reference: byte-identical finals despite the failover.
	r, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	offline, err := session.Replay(r, spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(offline, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')

	req, _ := http.NewRequest(http.MethodDelete, c.URL()+"/v1/sessions/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("close → %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("failed-over final scores differ from offline replay:\n got %s\nwant %s", got, want)
	}

	// The subscriber's stream survived the owner's death and terminated
	// with the same final document.
	select {
	case err := <-sseErr:
		if err != nil {
			t.Fatalf("live subscriber: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("live subscriber never saw the final frame")
	}
	final := <-finalCh
	if !final.Final || final.Events != uint64(len(evs)) {
		t.Fatalf("SSE final = %+v, want Final with %d events", final, len(evs))
	}

	// Stragglers see deterministic verdicts: the closed ID answers 410
	// naming the close reason, an unknown ID answers 404.
	for _, probe := range []struct {
		id, contains string
		status       int
	}{
		{id, "client", http.StatusGone},
		{"s-000000000000-999999", "", http.StatusNotFound},
	} {
		req, _ := http.NewRequest(http.MethodDelete, c.URL()+"/v1/sessions/"+probe.id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != probe.status || !strings.Contains(string(body), probe.contains) {
			t.Fatalf("DELETE %s → %d %s, want %d containing %q",
				probe.id, resp.StatusCode, body, probe.status, probe.contains)
		}
	}

	metrics, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := metricValue(metrics, "paco_session_failover_total"); !ok || v < 1 {
		t.Errorf("paco_session_failover_total = %v (found %v), want >= 1", v, ok)
	}
	if v, _ := metricValue(metrics, "paco_session_routed_opened_total"); v != 1 {
		t.Errorf("paco_session_routed_opened_total = %v, want 1", v)
	}
	if v, _ := metricValue(metrics, `paco_session_routed_closed_total{reason="client"}`); v != 1 {
		t.Errorf(`paco_session_routed_closed_total{reason="client"} = %v, want 1`, v)
	}
	if v, _ := metricValue(metrics, "paco_session_routed_open"); v != 0 {
		t.Errorf("paco_session_routed_open = %v, want 0 after close", v)
	}
	if v, ok := metricValue(metrics, "paco_session_failover_replayed_chunks_total"); !ok || v < 1 {
		t.Errorf("paco_session_failover_replayed_chunks_total = %v, want >= 1", v)
	}

	// Everything down, nothing leaked — the router's sweeper, the SSE
	// proxy, and the dead worker's sub-server goroutines all drained.
	c.Close()
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

// TestSessionRoutingPlacement pins the rendezvous placement properties
// the router depends on: many sessions spread across all live workers,
// and every request for one session lands on its one owner.
func TestSessionRoutingPlacement(t *testing.T) {
	c := servertest.New(t, servertest.Config{
		Workers:        3,
		SessionWorkers: true,
		Server: server.Config{
			JobWorkers:    1,
			CacheBytes:    1 << 20,
			RouteSessions: true,
		},
	})

	owners := map[string]int{}
	var ids []string
	for i := 0; i < 24; i++ {
		id, worker := openRouted(t, c.URL(), soakSpec)
		owners[worker]++
		ids = append(ids, id)
	}
	if len(owners) != 3 {
		t.Errorf("24 sessions landed on %d of 3 workers: %v", len(owners), owners)
	}
	// Each session is routable: scores answer 200 from wherever it lives.
	for _, id := range ids {
		resp, err := http.Get(c.URL() + "/v1/sessions/" + id + "/scores")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scores %s → %d", id, resp.StatusCode)
		}
	}
	metrics, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := metricValue(metrics, "paco_session_routed_open"); v != 24 {
		t.Errorf("paco_session_routed_open = %v, want 24", v)
	}
}

// routedCluster starts a routing coordinator over session workers.
func routedCluster(t *testing.T, workers int, workerTTL time.Duration) *servertest.Cluster {
	t.Helper()
	return servertest.New(t, servertest.Config{
		Workers:          workers,
		SessionWorkers:   true,
		WorkerSessionTTL: workerTTL,
		Server: server.Config{
			JobWorkers:    1,
			CacheBytes:    1 << 20,
			RouteSessions: true,
		},
	})
}

// call sends one request and returns the status and body.
func call(t *testing.T, method, url, contentType, body string, header ...string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

// openOn opens a soakSpec session at base and returns its ID and owner.
func openOn(t *testing.T, base string, header ...string) (id, worker string) {
	t.Helper()
	status, body := call(t, http.MethodPost, base+"/v1/sessions", "application/json", soakSpec, header...)
	if status != http.StatusCreated {
		t.Fatalf("open → %d: %s", status, body)
	}
	var opened struct {
		ID     string `json:"id"`
		Worker string `json:"worker"`
	}
	if err := json.Unmarshal([]byte(body), &opened); err != nil {
		t.Fatal(err)
	}
	return opened.ID, opened.Worker
}

// TestSessionRoutingLiveOwnerEvicted: when the owner's own idle TTL
// evicts a routed session first, a routed /live answers 410 naming
// "evicted". The owner is healthy, so nothing fails over and the owner
// keeps taking new sessions.
func TestSessionRoutingLiveOwnerEvicted(t *testing.T) {
	c := routedCluster(t, 2, 100*time.Millisecond)
	id, owner := openRouted(t, c.URL(), soakSpec)
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, metrics := call(t, http.MethodGet, c.SessionURL(owner)+"/metrics", "", "")
		if v, _ := metricValue(metrics, `paco_session_closed_total{reason="evicted"}`); v >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("owner never evicted the session")
		}
		time.Sleep(20 * time.Millisecond)
	}

	status, body := call(t, http.MethodGet, c.URL()+"/v1/sessions/"+id+"/live", "", "")
	if status != http.StatusGone || !strings.Contains(body, "evicted") {
		t.Fatalf("live after owner eviction → %d %s, want 410 naming evicted", status, body)
	}
	metrics, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := metricValue(metrics, "paco_session_failover_total"); v != 0 {
		t.Errorf("paco_session_failover_total = %v, want 0: a healthy owner was treated as dead", v)
	}
	for i := 0; ; i++ {
		if _, w := openOn(t, c.URL()); w == owner {
			break
		}
		if i == 32 {
			t.Fatalf("32 routed opens avoided %s: the owner is still excluded from routing", owner)
		}
	}
}

// TestSessionRoutingTrace: the client's trace ID crosses the proxy hop,
// so the owning worker's session span carries it.
func TestSessionRoutingTrace(t *testing.T) {
	c := routedCluster(t, 2, 0)
	openRouted(t, c.URL(), soakSpec) // wait until a worker can take sessions
	const trace = "routed-trace-1"
	id, worker := openOn(t, c.URL(), "X-Paco-Trace", trace)
	if status, body := call(t, http.MethodDelete, c.URL()+"/v1/sessions/"+id, "", ""); status != http.StatusOK {
		t.Fatalf("close → %d: %s", status, body)
	}
	status, body := call(t, http.MethodGet, c.SessionURL(worker)+"/debug/flight?kind=session&trace="+trace, "", "")
	if status != http.StatusOK {
		t.Fatalf("owner flight → %d: %s", status, body)
	}
	var report server.FlightReport
	if err := json.Unmarshal([]byte(body), &report); err != nil {
		t.Fatal(err)
	}
	if len(report.Spans) != 1 || report.Spans[0].Trace != trace {
		t.Fatalf("owner %s holds %d session spans for trace %q, want 1: %+v", worker, len(report.Spans), trace, report.Spans)
	}
}

// TestSessionRoutedErrorContract: a routing coordinator answers each
// session error with the status and body a plain server gives.
func TestSessionRoutedErrorContract(t *testing.T) {
	plain, err := server.New(server.Config{JobWorkers: 1, CacheBytes: 1 << 20, SampleInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	plain.Start()
	pts := httptest.NewServer(plain.Handler())
	defer plain.Close()
	defer pts.Close()
	c := routedCluster(t, 2, 0)
	openRouted(t, c.URL(), soakSpec)

	chunk := string(soakTraceBytes(t, soakEvents(7, 200)))
	cases := []struct {
		name   string
		status int
		run    func(base string) (int, string)
	}{
		{"malformed spec", http.StatusBadRequest, func(base string) (int, string) {
			return call(t, http.MethodPost, base+"/v1/sessions", "application/json", `{"estimators":`)
		}},
		{"unknown id", http.StatusNotFound, func(base string) (int, string) {
			return call(t, http.MethodGet, base+"/v1/sessions/s-000000000000-999999/scores", "", "")
		}},
		{"format mix-up", http.StatusConflict, func(base string) (int, string) {
			id, _ := openOn(t, base)
			if status, body := call(t, http.MethodPost, base+"/v1/sessions/"+id+"/events", "application/octet-stream", chunk); status != http.StatusAccepted {
				t.Fatalf("binary chunk → %d: %s", status, body)
			}
			return call(t, http.MethodPost, base+"/v1/sessions/"+id+"/events", "application/x-ndjson", "{}\n")
		}},
		{"malformed chunk", http.StatusBadRequest, func(base string) (int, string) {
			id, _ := openOn(t, base)
			return call(t, http.MethodPost, base+"/v1/sessions/"+id+"/events", "application/octet-stream", "not a trace stream")
		}},
		{"closed id", http.StatusGone, func(base string) (int, string) {
			id, _ := openOn(t, base)
			if status, body := call(t, http.MethodDelete, base+"/v1/sessions/"+id, "", ""); status != http.StatusOK {
				t.Fatalf("close → %d: %s", status, body)
			}
			return call(t, http.MethodGet, base+"/v1/sessions/"+id+"/scores", "", "")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantStatus, wantBody := tc.run(pts.URL)
			if wantStatus != tc.status {
				t.Fatalf("plain server → %d %s, want %d", wantStatus, wantBody, tc.status)
			}
			if status, body := tc.run(c.URL()); status != wantStatus || body != wantBody {
				t.Fatalf("routed → %d %s, plain server → %d %s", status, body, wantStatus, wantBody)
			}
		})
	}
}

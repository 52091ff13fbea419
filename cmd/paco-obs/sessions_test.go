package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"paco/internal/server"
)

// sessionServer serves the real /v1/sessions surface from an
// in-process paco-serve, through wrap when it is non-nil.
func sessionServer(t *testing.T, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	srv, err := server.New(server.Config{JobWorkers: 1, CacheBytes: 1 << 20, SampleInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Close)
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

// sessionsArgs streams 6 sessions in 1000-byte chunks — not a multiple
// of the 23-byte record, so every chunk after the first ends mid-record.
var sessionsArgs = []string{"-sessions", "6", "-events", "4000", "-chunk", "1000", "-concurrency", "3", "-verify"}

// TestSessionsVerifyMatchesReplay runs the load generator against a
// live server: every final scores document must be byte-identical to
// offline session.Replay of the same events, or run fails.
func TestSessionsVerifyMatchesReplay(t *testing.T) {
	ts := sessionServer(t, nil)
	if err := run(append([]string{"sessions", ts.URL}, sessionsArgs...)); err != nil {
		t.Fatalf("sessions -verify: %v", err)
	}
}

// TestSessionsVerifyCatchesDrift proves -verify compares bytes: a
// server whose DELETE answers drift by one event count must fail it.
func TestSessionsVerifyCatchesDrift(t *testing.T) {
	ts := sessionServer(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodDelete {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			w.WriteHeader(rec.Code)
			w.Write(bytes.Replace(rec.Body.Bytes(), []byte(`"events": 4000`), []byte(`"events": 3999`), 1))
		})
	})
	err := run(append([]string{"sessions", ts.URL}, sessionsArgs...))
	if err == nil || !strings.Contains(err.Error(), "6 of 6 sessions failed") {
		t.Fatalf("sessions -verify against drifting finals: err = %v, want every session failed", err)
	}
}

func TestSessionsRejectsBadFlags(t *testing.T) {
	if err := run([]string{"sessions", "http://127.0.0.1:0", "-chunk", "0"}); err == nil {
		t.Fatal("-chunk 0 accepted")
	}
}

// TestSessionsRetriesBackpressure answers every third events POST with
// 429 and Retry-After: 0 before the real handler sees it. The client
// resends the identical chunk after the floored delay, so every final
// still verifies, and the summary counts the retries.
func TestSessionsRetriesBackpressure(t *testing.T) {
	var posts atomic.Int64
	ts := sessionServer(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/events") && posts.Add(1)%3 == 0 {
				w.Header().Set("Retry-After", "0")
				w.WriteHeader(http.StatusTooManyRequests)
				return
			}
			h.ServeHTTP(w, r)
		})
	})
	out, err := captureStdout(t, func() error {
		return run(append([]string{"sessions", ts.URL}, sessionsArgs...))
	})
	if err != nil {
		t.Fatalf("sessions -verify under backpressure: %v\n%s", err, out)
	}
	if !strings.Contains(out, "verify: 6/6 finals byte-identical") {
		t.Fatalf("summary lacks 6/6 verified finals:\n%s", out)
	}
	m := regexp.MustCompile(`(\d+) backpressure retries`).FindStringSubmatch(out)
	if m == nil || m[1] == "0" {
		t.Fatalf("summary shows no backpressure retries:\n%s", out)
	}
}

// captureStdout runs fn with os.Stdout redirected into a pipe and
// returns what fn printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	err = fn()
	os.Stdout = stdout
	w.Close()
	return <-done, err
}

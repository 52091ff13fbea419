package session

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// testStream is a Stream into a session on ts, spending at most budget
// 429 retries.
func testStream(ts *httptest.Server, budget int, f Format) *Stream {
	c := NewClient(ts.URL)
	c.RetryBudget = budget
	return c.Stream("s-1", f)
}

// TestRetryAfterParsing pins the backoff contract for 429 hints: decimal
// seconds honored, fractional values not truncated to zero, zero and
// sub-floor hints clamped to minRetryAfter, and garbage defaulting to a
// full second. An integer-seconds parser turns "0.25" into the 1s
// default and "0" into a hot spin, both wrong directions.
func TestRetryAfterParsing(t *testing.T) {
	cases := []struct {
		header string
		want   time.Duration
	}{
		{"2", 2 * time.Second},
		{"0.25", 250 * time.Millisecond},
		{"0.5", 500 * time.Millisecond},
		{"0", minRetryAfter},
		{"0.001", minRetryAfter},
		{"-3", minRetryAfter},
		{"", time.Second},
		{"soon", time.Second},
		{"NaN", time.Second},
	}
	for _, tc := range cases {
		h := http.Header{}
		if tc.header != "" {
			h.Set("Retry-After", tc.header)
		}
		if got := RetryAfter(h); got != tc.want {
			t.Errorf("RetryAfter(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
}

// TestPostChunkBudget exhausts the retry budget against a server that
// never stops answering 429 and checks the abort is the named error
// after exactly budget+1 attempts (the first post is free; only retries
// spend budget).
func TestPostChunkBudget(t *testing.T) {
	var hits int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		w.Header().Set("Retry-After", "0") // clamped to minRetryAfter, keeps the test fast
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()

	st := testStream(ts, 3, FormatBinary)
	_, err := st.PostChunk([]byte("chunk"))
	if !errors.Is(err, ErrRetryBudget) {
		t.Fatalf("err = %v, want ErrRetryBudget", err)
	}
	if st.Retries() != 3 || st.budget != 0 || hits != 4 {
		t.Errorf("retries=%d budget=%d hits=%d, want 3/0/4", st.Retries(), st.budget, hits)
	}
}

// TestPostChunkRetriesThenAccepts: a transient 429 run shorter than the
// budget resolves to the eventual 202 ack, reporting both the accepted
// count and the retries consumed.
func TestPostChunkRetriesThenAccepts(t *testing.T) {
	var hits int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		if hits <= 2 {
			w.Header().Set("Retry-After", "0.01")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"accepted":17,"queued":0}`)
	}))
	defer ts.Close()

	st := testStream(ts, 10, FormatBinary)
	accepted, err := st.PostChunk([]byte("chunk"))
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 17 || st.Retries() != 2 || st.budget != 8 {
		t.Errorf("accepted=%d retries=%d budget=%d, want 17/2/8", accepted, st.Retries(), st.budget)
	}
}

// TestPostChunkUnlimitedBudget: a negative budget (paco-trace's
// -retry-budget 0 spelling) survives more 429s than any positive budget
// would and never trips the named error.
func TestPostChunkUnlimitedBudget(t *testing.T) {
	var hits int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		if hits <= 5 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"accepted":1,"queued":0}`)
	}))
	defer ts.Close()

	st := testStream(ts, -1, FormatBinary)
	accepted, err := st.PostChunk([]byte("chunk"))
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 1 || st.Retries() != 5 || st.budget != -1 {
		t.Errorf("accepted=%d retries=%d budget=%d, want 1/5/-1", accepted, st.Retries(), st.budget)
	}
}

// TestPostChunkHardError: a non-429 failure surfaces the status and
// body without spending budget.
func TestPostChunkHardError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "session: no such session", http.StatusNotFound)
	}))
	defer ts.Close()

	st := testStream(ts, 5, FormatBinary)
	_, err := st.PostChunk([]byte("chunk"))
	if err == nil || st.Retries() != 0 || st.budget != 5 {
		t.Fatalf("err=%v retries=%d budget=%d, want error with 0 retries and intact budget", err, st.Retries(), st.budget)
	}
	if errors.Is(err, ErrRetryBudget) {
		t.Fatal("hard error misreported as budget exhaustion")
	}
	if !strings.Contains(err.Error(), "HTTP 404: session: no such session") {
		t.Errorf("err = %v, want the status and the server's message", err)
	}
}

// TestPostChunkContentType: each format's chunks carry the Content-Type
// that the server's FormatOf maps back to that format.
func TestPostChunkContentType(t *testing.T) {
	for _, f := range []Format{FormatBinary, FormatNDJSON} {
		var got Format
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			got = FormatOf(r.Header.Get("Content-Type"))
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"accepted":1,"queued":0}`)
		}))
		if _, err := testStream(ts, 0, f).PostChunk([]byte("chunk")); err != nil {
			t.Fatal(err)
		}
		ts.Close()
		if got != f {
			t.Errorf("%s chunk arrived as %q", f, got)
		}
	}
}

// TestFrames reads /live-shaped Server-Sent Events: named and unnamed
// frames in order, comment lines skipped, and a frame cut off before
// its closing blank line dropped.
func TestFrames(t *testing.T) {
	stream := ": comment\n" +
		"event: scores\ndata: {\"events\":1}\n\n" +
		"data: {\"events\":2}\n\n" +
		"event: final\ndata: {\"events\":3,\"final\":true}\n\n" +
		"event: scores\ndata: {\"events\":4}\n"
	var got []string
	for event, data := range Frames(strings.NewReader(stream)) {
		got = append(got, event+" "+string(data))
	}
	want := []string{`scores {"events":1}`, ` {"events":2}`, `final {"events":3,"final":true}`}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Fatalf("frames = %q, want %q", got, want)
	}

	n := 0
	for range Frames(strings.NewReader(stream)) {
		n++
		break
	}
	if n != 1 {
		t.Fatalf("break after the first frame read %d frames", n)
	}
}

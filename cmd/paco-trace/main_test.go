package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paco/internal/core"
	"paco/internal/server"
	"paco/internal/session"
	"paco/internal/trace"
)

// recordTrace records a short fuzzed trace into a temporary file and
// returns its path.
func recordTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.trace")
	var out, errBuf bytes.Buffer
	args := []string{"record", "-fuzz", "42", "-instructions", "20000", "-warmup", "5000", "-o", path}
	if code := run(args, &out, &errBuf); code != 0 {
		t.Fatalf("record exited %d: %s", code, errBuf.String())
	}
	if !strings.HasPrefix(out.String(), "recorded ") || !strings.Contains(out.String(), "\nscenario hash ") {
		t.Fatalf("record printed %q, want the event count and the scenario hash", out.String())
	}
	return path
}

// offlineScores is the scores document session.Replay gives for the
// trace at path, as replay -scores must print it.
func offlineScores(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := session.ParseEstimators("paco,count", core.DefaultRefreshPeriod, 3)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := session.Replay(r, spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(want, '\n')
}

// TestReplayScoresMatchesSessionReplay: replay -scores prints exactly
// the session engine's scores document, and keeps the provenance line
// off stdout.
func TestReplayScoresMatchesSessionReplay(t *testing.T) {
	path := recordTrace(t)
	var out, errBuf bytes.Buffer
	if code := run([]string{"replay", "-i", path, "-estimators", "paco,count", "-scores"}, &out, &errBuf); code != 0 {
		t.Fatalf("replay exited %d: %s", code, errBuf.String())
	}
	if want := offlineScores(t, path); !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("replay -scores printed\n%s\nwant\n%s", out.Bytes(), want)
	}
	if !strings.HasPrefix(errBuf.String(), "scenario hash ") {
		t.Fatalf("stderr %q, want the scenario hash", errBuf.String())
	}
}

// TestStreamMatchesReplay streams a trace into a live server's session
// in chunks that split records, and must print the same bytes as the
// offline replay.
func TestStreamMatchesReplay(t *testing.T) {
	path := recordTrace(t)
	srv, err := server.New(server.Config{JobWorkers: 1, CacheBytes: 1 << 20, SampleInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	var out, errBuf bytes.Buffer
	args := []string{"stream", "-i", path, "-server", ts.URL, "-estimators", "paco,count", "-chunk", "1000", "-interval", "0"}
	if code := run(args, &out, &errBuf); code != 0 {
		t.Fatalf("stream exited %d: %s", code, errBuf.String())
	}
	if want := offlineScores(t, path); !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("stream printed\n%s\nwant\n%s", out.Bytes(), want)
	}
}

// TestErrorsExitOne: a bad estimator name or chunk size fails with a
// paco-trace: message and exit status 1, and writes nothing to stdout.
func TestErrorsExitOne(t *testing.T) {
	path := recordTrace(t)
	for _, args := range [][]string{
		{"replay", "-i", path, "-estimator", "bogus"},
		{"replay", "-i", path, "-estimators", "paco,bogus", "-scores"},
		{"stream", "-i", path, "-server", "http://127.0.0.1:1", "-estimators", "bogus"},
		{"stream", "-i", path, "-server", "http://127.0.0.1:1", "-chunk", "0"},
	} {
		var out, errBuf bytes.Buffer
		if code := run(args, &out, &errBuf); code != 1 {
			t.Errorf("%q exited %d, want 1", args, code)
		}
		if !strings.HasPrefix(errBuf.String(), "paco-trace: ") {
			t.Errorf("%q: stderr %q does not start with paco-trace:", args, errBuf.String())
		}
		if out.Len() != 0 {
			t.Errorf("%q wrote to stdout: %q", args, out.String())
		}
	}
}

// TestUsageExitsTwo: a missing or unknown subcommand and an unknown
// flag exit 2, as the flag package does; -h exits 0.
func TestUsageExitsTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{nil, 2},
		{[]string{"bogus"}, 2},
		{[]string{"replay", "-no-such-flag"}, 2},
		{[]string{"stream", "-h"}, 0},
	} {
		var out, errBuf bytes.Buffer
		if code := run(tc.args, &out, &errBuf); code != tc.code {
			t.Errorf("%q exited %d, want %d", tc.args, code, tc.code)
		}
		if errBuf.Len() == 0 {
			t.Errorf("%q printed no usage on stderr", tc.args)
		}
	}
}

package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed alongside its error.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	runErr := fn()
	os.Stdout = orig
	w.Close()
	out := <-done
	r.Close()
	return string(out), runErr
}

// TestBadBatchRejectedBeforeMeasuring: an invalid -batch width fails
// flag validation. The unknown benchmark would fail the measurement, so
// an error naming -batch, and no -out file, show that none started.
func TestBadBatchRejectedBeforeMeasuring(t *testing.T) {
	for _, batch := range []string{"0", "x", "1,0"} {
		out := filepath.Join(t.TempDir(), "report.json")
		err := run([]string{"-batch", batch, "-benchmarks", "nosuch", "-out", out})
		if err == nil || !strings.Contains(err.Error(), "-batch") {
			t.Fatalf("-batch %s: err = %v", batch, err)
		}
		if _, statErr := os.Stat(out); !os.IsNotExist(statErr) {
			t.Fatalf("-batch %s: report file written", batch)
		}
	}
}

func TestVersionFlag(t *testing.T) {
	out, err := captureStdout(t, func() error { return run([]string{"-version"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "paco-bench") {
		t.Fatalf("version output %q", out)
	}
}

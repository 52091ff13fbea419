package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// committed is the repository's kernel baseline, the report CI gates on.
const committed = "../../BENCH_kernel.json"

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

func TestCompareBaselineAgainstItself(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return runCompare([]string{"-baseline", committed, "-new", committed})
	})
	if err != nil {
		t.Fatalf("self-compare failed: %v\n%s", err, out)
	}
	if strings.Contains(out, "REGRESSED") {
		t.Fatalf("self-compare reported a regression:\n%s", out)
	}
}

func TestCompareInjectedSlowdownRegresses(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return runCompare([]string{"-baseline", committed, "-slowdown", "0.5", "-tolerance", "0.15"})
	})
	if err == nil {
		t.Fatalf("a 2x slowdown passed the gate:\n%s", out)
	}
	if !strings.Contains(out, "REGRESSED") {
		t.Fatalf("gate output names no regression:\n%s", out)
	}
}

func TestCompareRejectsNewWithSlowdown(t *testing.T) {
	err := runCompare([]string{"-baseline", committed, "-new", committed, "-slowdown", "0.5"})
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("-new with -slowdown: err = %v", err)
	}
}

func TestMissingBaselineFile(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.json")
	if err := runCompare([]string{"-baseline", missing}); !os.IsNotExist(err) {
		t.Fatalf("compare with missing baseline: err = %v", err)
	}
	if err := run([]string{"-baseline", missing}); !os.IsNotExist(err) {
		t.Fatalf("measure with missing baseline: err = %v", err)
	}
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

package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestVersionExitsZero(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-version"}, &out, &errBuf); code != 0 {
		t.Fatalf("-version exited %d, want 0 (stderr %q)", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "paco-repro") {
		t.Fatalf("-version printed %q, want the command name", out.String())
	}
}

func TestUnknownFlagExitsTwo(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errBuf); code != 2 {
		t.Fatalf("unknown flag exited %d, want 2", code)
	}
	if !strings.Contains(errBuf.String(), "no-such-flag") {
		t.Fatalf("stderr %q does not name the bad flag", errBuf.String())
	}
	if out.Len() != 0 {
		t.Fatalf("unknown flag wrote a report: %q", out.String())
	}
}

// TestUnwritableOutExitsOne: an -out path in a missing directory fails
// before any experiment runs, with a paco-repro: message on stderr.
func TestUnwritableOutExitsOne(t *testing.T) {
	var out, errBuf bytes.Buffer
	path := filepath.Join(t.TempDir(), "missing", "report.txt")
	if code := run([]string{"-quick", "-out", path}, &out, &errBuf); code != 1 {
		t.Fatalf("-out %s exited %d, want 1", path, code)
	}
	if !strings.HasPrefix(errBuf.String(), "paco-repro: ") {
		t.Fatalf("stderr %q does not start with paco-repro:", errBuf.String())
	}
	if out.Len() != 0 {
		t.Fatalf("report went to stdout: %q", out.String())
	}
}

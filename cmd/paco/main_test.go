package main

import (
	"bytes"
	"strings"
	"testing"

	"paco/internal/experiments"
)

// TestQuickFig2MatchesExperimentsRun: paco writes exactly the report
// experiments.Run writes, and its timing line goes to stderr.
func TestQuickFig2MatchesExperimentsRun(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"fig2", "-quick", "-j", "2"}, &out, &errBuf); code != 0 {
		t.Fatalf("paco fig2 -quick exited %d: %s", code, errBuf.String())
	}
	var want bytes.Buffer
	cfg := experiments.Quick()
	cfg.Workers = 2
	if err := experiments.Run("fig2", cfg, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want.Bytes()) {
		t.Fatalf("paco fig2 -quick printed\n%s\nwant\n%s", out.Bytes(), want.Bytes())
	}
	if !strings.HasPrefix(errBuf.String(), "[fig2 completed in ") {
		t.Fatalf("stderr %q, want the timing line", errBuf.String())
	}
}

func TestListPrintsNames(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"list"}, &out, &errBuf); code != 0 {
		t.Fatalf("list exited %d", code)
	}
	if want := strings.Join(experiments.Names(), "\n") + "\n"; out.String() != want {
		t.Fatalf("list printed %q, want %q", out.String(), want)
	}
}

// TestExitCodes: no experiment and an unknown flag exit 2, as the flag
// package does, -h exits 0, and an unknown experiment fails with 1.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{nil, 2},
		{[]string{"fig2", "-no-such-flag"}, 2},
		{[]string{"fig2", "-h"}, 0},
		{[]string{"no-such-experiment", "-quick"}, 1},
	} {
		var out, errBuf bytes.Buffer
		if code := run(tc.args, &out, &errBuf); code != tc.code {
			t.Errorf("%q exited %d, want %d (stderr %q)", tc.args, code, tc.code, errBuf.String())
		}
		if out.Len() != 0 {
			t.Errorf("%q wrote to stdout: %q", tc.args, out.String())
		}
	}
}

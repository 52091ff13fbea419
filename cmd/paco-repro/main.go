// Command paco-repro runs the paper's entire evaluation end to end —
// every table and figure — and writes one combined report, suitable for
// regenerating EXPERIMENTS.md's measured columns.
//
// Every experiment shards its per-benchmark simulation runs across the
// campaign worker pool (-j); for a fixed configuration the report is
// byte-identical at any -j, so -j only changes wall-clock time.
//
// Usage:
//
//	paco-repro [-quick] [-j N] [-out report.txt]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"paco/internal/experiments"
	"paco/internal/version"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command behind main, returning its exit status: 0 on
// success or -h, 2 on a flag error (the flag package's convention), 1 when
// the report cannot be written or an experiment fails.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paco-repro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "use the small test-scale configuration")
	out := fs.String("out", "", "write the report to a file instead of stdout")
	jobs := fs.Int("j", runtime.GOMAXPROCS(0), "simulation worker pool size")
	showVersion := fs.Bool("version", false, "print the build stamp and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *showVersion {
		version.Fprint(stdout, "paco-repro")
		return 0
	}
	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	cfg.Workers = *jobs
	w := stdout
	var f *os.File
	if *out != "" {
		var err error
		if f, err = os.Create(*out); err != nil {
			fmt.Fprintln(stderr, "paco-repro:", err)
			return 1
		}
		defer f.Close() // error paths; success checks Close below
		w = f
	}
	total := time.Now()
	order := []string{"fig2", "fig3a", "fig3b", "table7", "fig8", "fig9", "fig10", "fig12", "tableA1"}
	for _, name := range order {
		start := time.Now()
		fmt.Fprintf(w, "==================== %s ====================\n", name)
		if err := experiments.Run(name, cfg, w); err != nil {
			fmt.Fprintln(stderr, "paco-repro:", name, err)
			return 1
		}
		fmt.Fprintln(w)
		fmt.Fprintf(stderr, "[%s: %v]\n", name, time.Since(start).Round(time.Millisecond))
	}
	if f != nil {
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, "paco-repro:", err)
			return 1
		}
	}
	// The footer goes to stderr, not the report: timing varies run to
	// run, and the report itself must stay byte-identical at any -j.
	fmt.Fprintf(stderr, "[total: %v at -j %d]\n", time.Since(total).Round(time.Millisecond), *jobs)
	return 0
}

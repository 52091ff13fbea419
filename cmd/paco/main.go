// Command paco regenerates any single table or figure from the paper's
// evaluation.
//
// Usage:
//
//	paco <experiment> [flags]
//	paco list
//
// `paco list` prints the experiment ids: the paper's tables and figures
// plus the ablations and robustness checks. The default configuration
// runs each benchmark for 2M measured instructions after a 400k warmup;
// -quick selects a small configuration, -instructions/-warmup override.
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
	"paco/internal/perf"
	"paco/internal/version"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command behind main, returning its exit status: 0 on
// success or -h, 2 on a usage or flag error (the flag package's
// convention), 1 when the experiment fails.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paco", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "use the small test-scale configuration")
	jobs := fs.Int("j", runtime.GOMAXPROCS(0), "simulation worker pool size")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to a file")
	memprofile := fs.String("memprofile", "", "write a heap profile to a file")
	instructions := fs.Uint64("instructions", 0, "measured instructions per benchmark run (0 = config default)")
	warmup := fs.Uint64("warmup", 0, "warmup instructions per run (0 = config default)")
	refresh := fs.Uint64("refresh", 0, "PaCo MRT refresh period in cycles (0 = config default)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: paco <experiment> [flags]\n\nexperiments:\n")
		for _, n := range experiments.Names() {
			fmt.Fprintf(stderr, "  %s\n", n)
		}
		fmt.Fprintf(stderr, "\nflags:\n")
		fs.PrintDefaults()
	}
	if len(args) < 1 {
		fs.Usage()
		return 2
	}
	name := args[0]
	if name == "list" {
		for _, n := range experiments.Names() {
			fmt.Fprintln(stdout, n)
		}
		return 0
	}
	if name == "-version" || name == "--version" {
		version.Fprint(stdout, "paco")
		return 0
	}
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	if *instructions != 0 {
		cfg.Instructions = *instructions
	}
	if *warmup != 0 {
		cfg.Warmup = *warmup
	}
	if *refresh != 0 {
		cfg.RefreshPeriod = *refresh
	}
	cfg.Workers = *jobs
	start := time.Now()
	err := perf.WithProfiles(*cpuprofile, *memprofile, func() error {
		return experiments.Run(name, cfg, stdout)
	})
	if err != nil {
		fmt.Fprintln(stderr, "paco:", err)
		return 1
	}
	fmt.Fprintf(stderr, "[%s completed in %v]\n", name, time.Since(start).Round(time.Millisecond))
	return 0
}

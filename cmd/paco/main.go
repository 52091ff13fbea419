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
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"paco/internal/experiments"
	"paco/internal/perf"
	"paco/internal/version"
)

func main() {
	fs := flag.NewFlagSet("paco", flag.ExitOnError)
	quick := fs.Bool("quick", false, "use the small test-scale configuration")
	jobs := fs.Int("j", runtime.GOMAXPROCS(0), "simulation worker pool size")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to a file")
	memprofile := fs.String("memprofile", "", "write a heap profile to a file")
	instructions := fs.Uint64("instructions", 0, "measured instructions per benchmark run (0 = config default)")
	warmup := fs.Uint64("warmup", 0, "warmup instructions per run (0 = config default)")
	refresh := fs.Uint64("refresh", 0, "PaCo MRT refresh period in cycles (0 = config default)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: paco <experiment> [flags]\n\nexperiments:\n")
		for _, n := range experiments.Names() {
			fmt.Fprintf(os.Stderr, "  %s\n", n)
		}
		fmt.Fprintf(os.Stderr, "\nflags:\n")
		fs.PrintDefaults()
	}
	if len(os.Args) < 2 {
		fs.Usage()
		os.Exit(2)
	}
	name := os.Args[1]
	if name == "list" {
		for _, n := range experiments.Names() {
			fmt.Println(n)
		}
		return
	}
	if name == "-version" || name == "--version" {
		version.Fprint(os.Stdout, "paco")
		return
	}
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
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
		return experiments.Run(name, cfg, os.Stdout)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "paco:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", name, time.Since(start).Round(time.Millisecond))
}

// Command paco-bench measures simulator kernel throughput — simulated
// kcycles per wall second, allocations per cycle, and the per-stage cost
// breakdown — and writes the paco-bench/v2 JSON report that seeds the
// repository's bench trajectory (BENCH_kernel.json).
//
// Usage:
//
//	paco-bench [flags]
//
// Examples:
//
//	# measure the default configurations and print the report
//	paco-bench
//
//	# add batched lockstep rows and the lane-scaling geomean
//	paco-bench -batch 1,4,8,16
//
//	# regenerate the committed report
//	paco-bench -batch 1,4,8,16 -out BENCH_kernel.json
//
// CI's kernel perf gate runs paco-bench three times with -batch 1,8 and
// requires the median speedup_batch to reach a floor. Both sides of that
// ratio are measured in one process, so a slower host cancels out of it
// and a slower batched path does not.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"paco/internal/perf"
	"paco/internal/version"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "paco-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("paco-bench", flag.ExitOnError)
	benchmarks := fs.String("benchmarks", "gzip,twolf,mcf", "comma-separated benchmark names to measure")
	smt := fs.Bool("smt", true, "also measure the two-thread SMT machine")
	warmup := fs.Uint64("warmup", 0, "warmup cycles per configuration (0 = default)")
	cycles := fs.Uint64("cycles", 0, "measured cycles per configuration (0 = default)")
	stageCycles := fs.Uint64("stagecycles", 0, "instrumented cycles for the stage breakdown (0 = default)")
	batch := fs.String("batch", "", "comma-separated batched lockstep widths to measure (include 1 for the scaling baseline)")
	out := fs.String("out", "", "write the report to a file instead of stdout")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the measurement to a file")
	showVersion := fs.Bool("version", false, "print the build stamp and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *showVersion {
		version.Fprint(os.Stdout, "paco-bench")
		return nil
	}
	opts := perf.Options{WarmupCycles: *warmup, MeasureCycles: *cycles, StageCycles: *stageCycles}
	if *batch != "" {
		for _, part := range strings.Split(*batch, ",") {
			k, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || k <= 0 {
				return fmt.Errorf("invalid -batch width %q", part)
			}
			opts.BatchKs = append(opts.BatchKs, k)
		}
	}
	var rep *perf.Report
	err := perf.WithProfiles(*cpuprofile, "", func() error {
		var merr error
		rep, merr = perf.MeasureAll(strings.Split(*benchmarks, ","), *smt, opts)
		return merr
	})
	if err != nil {
		return err
	}

	var w io.Writer = os.Stdout
	var outFile *os.File
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		outFile = f
		w = f
	}
	if err := rep.WriteJSON(w); err != nil {
		if outFile != nil {
			outFile.Close()
		}
		return err
	}
	if outFile != nil {
		// The report is a committed artifact: surface close-time
		// flush errors rather than exiting 0 with a truncated file.
		if err := outFile.Close(); err != nil {
			return err
		}
	}
	for _, r := range rep.Results {
		fmt.Fprintf(os.Stderr, "[%s: %.0f kcycles/s, %.0f kinstrs/s, %.3f allocs/cycle]\n",
			r.Name, r.KCyclesPerSec, r.KInstrsPerSec, r.AllocsPerCycle)
	}
	if rep.SpeedupBatch != 0 {
		fmt.Fprintf(os.Stderr, "[batched lane scaling: %.2fx geomean vs batch=1]\n", rep.SpeedupBatch)
	}
	return nil
}

// Command paco-bench measures simulator kernel throughput — simulated
// kcycles per wall second, allocations per cycle, and the per-stage cost
// breakdown — and writes the paco-bench/v2 JSON report that seeds the
// repository's bench trajectory (BENCH_kernel.json).
//
// Usage:
//
//	paco-bench [flags]
//	paco-bench compare -baseline BENCH_kernel.json [-new report.json | -measure] [flags]
//
// Examples:
//
//	# measure the default configurations and print the report
//	paco-bench
//
//	# add batched lockstep rows and the lane-scaling geomean
//	paco-bench -batch 1,4,8,16
//
//	# refresh the committed baseline, comparing against the previous one
//	paco-bench -batch 1,4,8,16 -baseline BENCH_kernel.json -out BENCH_kernel.json
//
//	# the CI regression gate: exit nonzero naming the regressed stage
//	# when any configuration lost more than 15% throughput
//	paco-bench compare -baseline BENCH_kernel.json -new fresh.json -tolerance 0.15
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
	var err error
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		err = runCompare(os.Args[2:])
	} else {
		err = run(os.Args[1:])
	}
	if err != nil {
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
	baseline := fs.String("baseline", "", "prior report to compare against (its own baseline is dropped)")
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
	var base *perf.Report
	if *baseline != "" {
		f, err := os.Open(*baseline)
		if err != nil {
			return err
		}
		base, err = perf.ReadReport(f)
		f.Close()
		if err != nil {
			return err
		}
		base.Baseline = nil // keep the artifact one level deep
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
	if base != nil {
		rep.AttachBaseline(base)
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
		// The report is a committed baseline artifact: surface close-time
		// flush errors rather than exiting 0 with a truncated file.
		if err := outFile.Close(); err != nil {
			return err
		}
	}
	for _, r := range rep.Results {
		fmt.Fprintf(os.Stderr, "[%s: %.0f kcycles/s, %.0f kinstrs/s, %.3f allocs/cycle]\n",
			r.Name, r.KCyclesPerSec, r.KInstrsPerSec, r.AllocsPerCycle)
	}
	if rep.SpeedupKCycles != 0 {
		fmt.Fprintf(os.Stderr, "[speedup vs baseline: %.2fx kcycles/s]\n", rep.SpeedupKCycles)
	}
	if rep.SpeedupBatch != 0 {
		fmt.Fprintf(os.Stderr, "[batched lane scaling: %.2fx geomean vs batch=1]\n", rep.SpeedupBatch)
	}
	return nil
}

// Command perfbench is the repository's benchmark. It runs one named
// workload against the program's public entry points, checks the
// outputs, and prints one JSON object as the last line of standard
// output:
//
//	bash perfbench/run.sh --workload sweep --seed 7 --seconds 20 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run. README.md
// beside this file explains each workload and metric.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"paco/internal/version"
)

// workloadDef is one workload: a pass that drives the program for a
// time budget, and the set-up a fresh process performs before it can
// send its first request.
type workloadDef struct {
	run   func(ctx context.Context, p *pass) error
	ready func() (stop func(), err error)
}

var workloads = map[string]workloadDef{
	"repro":           {run: runRepro, ready: readyRepro},
	"sweep":           {run: runSweep, ready: readyTopology(federation)},
	"sessions":        {run: runSessionsDirect, ready: readyTopology(plainServer)},
	"sessions_routed": {run: runSessionsRouted, ready: readyTopology(sessionRouter)},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// pass is one execution of a workload: its inputs and what it observed.
type pass struct {
	seed   int64
	budget time.Duration
	tr     *tracer // nil for the timed, untraced pass

	mu        sync.Mutex
	attempted int
	failed    int
	retried   int
	problems  []string

	rounds kinded // seconds per unit of work, by input kind
	ops    kinded // milliseconds per client operation, by input kind
	start  time.Time
	window time.Duration
	done   []completion // work finished in the window

	report []byte // repro: the evaluation report, compared across passes

	detail map[string]float64 // workload-specific names for the same pass
	layer  map[string]float64 // per-layer metrics (traced passes)
}

func newPass(seed int64, budget time.Duration, tr *tracer) *pass {
	return &pass{seed: seed, budget: budget, tr: tr,
		detail: map[string]float64{}, layer: map[string]float64{}}
}

func (p *pass) attempt(n int) {
	p.mu.Lock()
	p.attempted += n
	p.mu.Unlock()
}

func (p *pass) retry() {
	p.mu.Lock()
	p.retried++
	p.mu.Unlock()
}

// fail counts one failed operation and keeps its reason.
func (p *pass) fail(format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failed++
	if len(p.problems) < 20 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// problem records a failed check that is not a counted operation.
func (p *pass) problem(format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.problems) < 20 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// completion is work that finished at an offset into the window.
type completion struct {
	at    time.Duration
	units float64
}

// begin opens the measured window.
func (p *pass) begin() { p.start = time.Now() }

// finish closes the measured window.
func (p *pass) finish() { p.window = time.Since(p.start) }

// completed records units of work (cells or events) finishing now.
func (p *pass) completed(units float64) {
	p.mu.Lock()
	p.done = append(p.done, completion{time.Since(p.start), units})
	p.mu.Unlock()
}

// work is the units completed in the window.
func (p *pass) work() float64 {
	t := 0.0
	for _, c := range p.done {
		t += c.units
	}
	return t
}

// rateSlices is how many equal slices of the window rate takes the
// median over.
const rateSlices = 10

// rate is the pass's throughput in units per second: the median over
// rateSlices equal slices of the window of the units completed in each,
// so a stall of the host during one slice does not move it. With fewer
// completions than slices it is the plain ratio.
func (p *pass) rate() float64 {
	if len(p.done) < 4*rateSlices {
		return p.work() / p.window.Seconds()
	}
	slice := p.window / rateSlices
	per := make([]float64, rateSlices)
	for _, c := range p.done {
		per[min(int(c.at/slice), rateSlices-1)] += c.units
	}
	return median(per) / slice.Seconds()
}

func (p *pass) setLayer(name string, v float64) {
	p.mu.Lock()
	p.layer[name] = v
	p.mu.Unlock()
}

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics in the order the report prints
// them; BENCHMARK.json names the same set.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"work_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"mem_p50_mb", "MiB"},
}

// setupLaunches is how many fresh processes setup_s takes the median of.
const setupLaunches = 16

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "measurement budget in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the timed pass")
	ready := fs.String("ready", "", "internal: set up the named workload, print \"ready\", and wait for stdin to close")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *ready != "" {
		return readyChild(*ready, stdout, stderr)
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))

	// Half the set-up launches run before the pass and half after, so
	// setup_s does not hinge on the host's state at one moment.
	refStart := referenceMS()
	setupTimes, err := launchSetups(*name, setupLaunches/2)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up:", err)
		return 1
	}
	ctx := context.Background()
	var res result
	var p *pass
	var memMiB float64
	if *traced == 0 {
		p = newPass(*seed, budget, nil)
		mem := startMemSampler(50 * time.Millisecond)
		err = w.run(ctx, p)
		memMiB = mem.finish()
	} else {
		p, res, err = tracedRun(ctx, *name, *seed, budget, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	after, err := launchSetups(*name, setupLaunches/2)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up:", err)
		return 1
	}
	setup := median(append(setupTimes, after...))
	if *traced == 0 {
		res = endToEndResult(p, setup, memMiB)
	}
	refEnd := referenceMS()

	fp := fingerprint()
	fp["reference_ms_start"] = refStart
	fp["reference_ms_end"] = refEnd
	printJSONLine(stdout, "host", fp)
	printJSONLine(stdout, "detail", map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *traced,
		"attempted": p.attempted, "failed": p.failed, "retried": p.retried,
		"setup_s": setup, "metrics": p.detail,
	})
	for _, msg := range p.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", msg)
	}
	printJSONLine(stdout, "", res)
	if !res.Correct {
		return 1
	}
	return 0
}

// endToEndResult turns a timed pass into the result line.
func endToEndResult(p *pass, setup, memMiB float64) result {
	ops := p.ops.all()
	vals := map[string]float64{
		"setup_s":    setup,
		"wall_s":     p.rounds.summary(),
		"work_per_s": p.rate(),
		"op_p50_ms":  p.ops.summary(),
		"mem_p50_mb": memMiB,
	}
	p.detail["rounds"] = float64(len(p.rounds.all()))
	p.detail["ops"] = float64(len(ops))
	p.detail["op_pooled_p50_ms"] = quantile(ops, 0.50)
	p.detail["op_pooled_p90_ms"] = quantile(ops, 0.90)
	p.detail["op_pooled_p99_ms"] = quantile(ops, 0.99)
	m := map[string]metric{}
	for _, e := range endToEnd {
		m[e.name] = metric{Value: vals[e.name], Unit: e.unit}
	}
	return result{
		Correct:   len(p.problems) == 0 && p.failed == 0 && p.attempted > 0 && allFinite(m),
		Attempted: max(p.attempted, 1),
		Failed:    p.failed,
		Metrics:   m,
	}
}

func allFinite(m map[string]metric) bool {
	for _, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return false
		}
	}
	return true
}

// printJSONLine prints v as one JSON line, prefixed with "label: " when
// label is nonempty.
func printJSONLine(w io.Writer, label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("{\"error\":%q}", err.Error()))
	}
	if label != "" {
		fmt.Fprintf(w, "%s: ", label)
	}
	fmt.Fprintf(w, "%s\n", b)
}

// launchSetups starts n fresh processes of this binary in --ready mode
// and returns, for each, the seconds from process start until the
// workload reported it could send its first request. Tear-down is not
// timed.
func launchSetups(name string, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var times []float64
	for i := 0; i < n; i++ {
		d, err := launchReady(exe, name)
		if err != nil {
			return nil, err
		}
		times = append(times, d.Seconds())
	}
	return times, nil
}

func launchReady(exe, name string) (time.Duration, error) {
	cmd := exec.Command(exe, "--ready", name)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return 0, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, readErr := bufio.NewReader(stdout).ReadString('\n')
	d := time.Since(start)
	stdin.Close()
	waitErr := cmd.Wait()
	if readErr != nil || strings.TrimSpace(line) != "ready" {
		return 0, fmt.Errorf("set-up process for %s did not report ready (%q, %v, %v)", name, line, readErr, waitErr)
	}
	if waitErr != nil {
		return 0, fmt.Errorf("set-up process for %s: %w", name, waitErr)
	}
	return d, nil
}

// readyChild is the --ready mode: set up, report, wait for the parent
// to close stdin, tear down.
func readyChild(name string, stdout, stderr io.Writer) int {
	w, ok := workloads[name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", name)
		return 2
	}
	stop, err := w.ready()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: set-up:", err)
		return 1
	}
	fmt.Fprintln(stdout, "ready")
	io.Copy(io.Discard, os.Stdin)
	stop()
	return 0
}

func readyTopology(top topology) func() (func(), error) {
	return func() (func(), error) {
		c, err := startCluster(top, nil)
		if err != nil {
			return nil, err
		}
		return c.close, nil
	}
}

// referenceMS times a fixed integer computation. It is recorded at the
// start and end of every run, not gated: it tells host-speed drift apart
// from a change in the program.
func referenceMS() float64 {
	start := time.Now()
	x := uint64(0)
	for i := uint64(0); i < 30_000_000; i++ {
		x = splitmix(int64(x), i)
	}
	d := time.Since(start)
	if x == 1 { // keeps the loop from being optimized away
		fmt.Fprint(io.Discard, x)
	}
	return float64(d) / float64(time.Millisecond)
}

// fingerprint describes the host a run measured.
func fingerprint() map[string]any {
	fp := map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"build":      version.Get().String(),
		"cpu_model":  "unknown",
		"cpu_max":    "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp["cpu_model"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/sys/fs/cgroup/cpu.max"); err == nil {
		fp["cpu_max"] = strings.TrimSpace(string(b))
	} else if q, err := os.ReadFile("/sys/fs/cgroup/cpu/cpu.cfs_quota_us"); err == nil {
		p, _ := os.ReadFile("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
		fp["cpu_max"] = strings.TrimSpace(string(q)) + " " + strings.TrimSpace(string(p)) // cgroup v1
	}
	return fp
}

// traceFile is where a traced run writes its spans, inside the build
// directory run.sh creates.
func traceFile(name string, seed int64) string {
	return filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
}

var errNoWork = errors.New("no operation completed within the budget")

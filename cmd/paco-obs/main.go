// Command paco-obs checks a running paco-serve's observability surfaces
// — the scriptable side of the obs layer, built for CI smoke steps and
// quick operator sanity checks.
//
// Usage:
//
//	paco-obs lint <base-url>
//	paco-obs flight <base-url> [-kind k] [-trace t] [-min n]
//	paco-obs watch <base-url> [-family f] [-points n] [-interval d] [-n polls]
//	paco-obs report <base-url> -id <job> [-min-workers n] [-max-straggler x] [-max-imbalance x]
//	paco-obs sessions <base-url> [-sessions n] [-events n] [-chunk b] [-concurrency n] [-estimators list] [-seed s] [-verify]
//
// lint fetches GET /metrics and runs the strict Prometheus exposition
// linter over it (internal/obs.LintExposition): metric and label name
// syntax, HELP/TYPE placement, family contiguity, duplicate series,
// histogram shape. Any finding is printed and exits 1 — the CI guard
// that /metrics never drifts out of scrapeable shape.
//
// flight fetches GET /debug/flight (with the given filters) and prints
// a per-kind span census. With -min it exits 1 unless at least n spans
// match — how the federation smoke asserts that a distributed sweep
// actually left a reconstructable lease → execute → cell trail.
//
// watch polls GET /v1/timeseries and renders each sampled series as a
// unicode sparkline — /debug/dash for terminals. -n bounds the poll
// count so CI can take one deterministic look and move on.
//
// report fetches GET /v1/campaigns/{id}/report?exec=1, prints the
// execution breakdown (wall vs sim vs queue-wait, per-worker
// throughput), and asserts balance thresholds: -min-workers,
// -max-straggler, -max-imbalance each exit 1 when violated — the
// federation smoke's proof that work actually spread across workers.
//
// sessions is a load generator for the live estimator-session surface:
// it opens -sessions sessions, streams deterministic synthetic branch
// events into each (-concurrency at a time), closes them, and reports
// sessions/sec, events/sec, and 429 backpressure retries. Against a
// routed coordinator it also prints per-worker placement, and -verify
// byte-compares every final scores document against an offline
// session.Replay of the same events — any drift exits 1.
//
// Examples:
//
//	paco-obs lint "http://$ADDR"
//	paco-obs flight "http://$ADDR" -kind shard.lease -min 2
//	paco-obs flight "http://$ADDR" -trace "$TRACE_ID"
//	paco-obs watch "http://$ADDR" -family kcycles -n 1
//	paco-obs report "http://$ADDR" -id "$JOB" -min-workers 2 -max-straggler 3.5
//	paco-obs sessions "http://$ADDR" -sessions 16 -events 10000 -verify
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"sort"
	"time"

	"paco/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "paco-obs:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("usage: paco-obs lint|flight|watch|report|sessions <base-url> [flags]")
	}
	cmd, base, rest := args[0], args[1], args[2:]
	switch cmd {
	case "lint":
		return lint(base)
	case "flight":
		return flight(base, rest)
	case "watch":
		return watch(base, rest)
	case "report":
		return report(base, rest)
	case "sessions":
		return sessions(base, rest)
	default:
		return fmt.Errorf("unknown subcommand %q (want lint, flight, watch, report, or sessions)", cmd)
	}
}

func get(rawURL string) (*http.Response, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(rawURL)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s: %s", rawURL, resp.Status)
	}
	return resp, nil
}

// lint scrapes /metrics and runs the exposition linter over the body.
func lint(base string) error {
	resp, err := get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if errs := obs.LintExposition(resp.Body); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "lint:", e)
		}
		return fmt.Errorf("%d exposition problem(s)", len(errs))
	}
	fmt.Println("metrics exposition: clean")
	return nil
}

// flightReport mirrors server.FlightReport without importing the
// server package into this small binary.
type flightReport struct {
	Capacity int              `json:"capacity"`
	Recorded uint64           `json:"recorded"`
	Active   int64            `json:"active"`
	Spans    []obs.SpanRecord `json:"spans"`
}

// flight fetches /debug/flight with the given filters and prints a
// per-kind census; -min turns it into an assertion.
func flight(base string, args []string) error {
	fs := flag.NewFlagSet("flight", flag.ContinueOnError)
	kind := fs.String("kind", "", "only spans of this kind (job, shard.lease, shard.execute, cell, ...)")
	trace := fs.String("trace", "", "only spans carrying this trace ID")
	min := fs.Int("min", 0, "exit nonzero unless at least this many spans match")
	if err := fs.Parse(args); err != nil {
		return err
	}
	q := url.Values{}
	if *kind != "" {
		q.Set("kind", *kind)
	}
	if *trace != "" {
		q.Set("trace", *trace)
	}
	u := base + "/debug/flight"
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	resp, err := get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var report flightReport
	if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
		return fmt.Errorf("decoding flight report: %w", err)
	}

	byKind := map[string]int{}
	failed := 0
	for _, sp := range report.Spans {
		byKind[sp.Kind]++
		if sp.Err != "" {
			failed++
		}
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Printf("flight: %d span(s) (%d with errors), %d recorded total, %d active, capacity %d\n",
		len(report.Spans), failed, report.Recorded, report.Active, report.Capacity)
	for _, k := range kinds {
		fmt.Printf("  %-16s %d\n", k, byKind[k])
	}
	if len(report.Spans) < *min {
		return fmt.Errorf("%d span(s) match, want >= %d", len(report.Spans), *min)
	}
	return nil
}

package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/url"
	"os"
	"strings"
	"time"

	"paco/internal/obs/tsdb"
)

// Observatory subcommands: `watch` renders the server's sampled
// time-series as terminal sparklines (the /debug/dash experience for
// people who live in a shell), and `report` fetches a campaign report
// and asserts execution thresholds — the CI hook that turns "the
// federation ran" into "the federation ran acceptably balanced".

// timeseriesReport mirrors server.TimeseriesReport without importing
// the server package into this small binary.
type timeseriesReport struct {
	IntervalMS    int64         `json:"interval_ms"`
	SeriesHeld    int           `json:"series_held"`
	SeriesDropped uint64        `json:"series_dropped"`
	Samples       uint64        `json:"samples"`
	Series        []tsdb.Series `json:"series"`
}

var sparkRamp = []rune("▁▂▃▄▅▆▇█")

// sparkline renders points as one unicode bar per point, scaled to the
// series' own min..max window.
func sparkline(pts []tsdb.Point) string {
	if len(pts) == 0 {
		return ""
	}
	min, max := pts[0].V, pts[0].V
	for _, p := range pts[1:] {
		if p.V < min {
			min = p.V
		}
		if p.V > max {
			max = p.V
		}
	}
	span := max - min
	var b strings.Builder
	for _, p := range pts {
		i := 0
		if span > 0 {
			i = int((p.V - min) / span * float64(len(sparkRamp)-1))
		}
		b.WriteRune(sparkRamp[i])
	}
	return b.String()
}

// fmtVal compacts a metric value for a fixed-width column.
func fmtVal(v float64) string {
	a := v
	if a < 0 {
		a = -a
	}
	switch {
	case a >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case a >= 1e3:
		return fmt.Sprintf("%.2fk", v/1e3)
	case a >= 1 || a == 0:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// watch polls /v1/timeseries and redraws a sparkline per series.
func watch(base string, args []string) error {
	fs := flag.NewFlagSet("watch", flag.ContinueOnError)
	family := fs.String("family", "", "only this metric family (substring match client-side when not exact)")
	points := fs.Int("points", 60, "points per sparkline")
	interval := fs.Duration("interval", 2*time.Second, "poll period")
	n := fs.Int("n", 0, "stop after this many polls (0 = run until interrupted)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	for poll := 0; *n == 0 || poll < *n; poll++ {
		if poll > 0 {
			time.Sleep(*interval)
		}
		q := url.Values{}
		q.Set("points", fmt.Sprint(*points))
		resp, err := get(base + "/v1/timeseries?" + q.Encode())
		if err != nil {
			return err
		}
		var report timeseriesReport
		err = json.NewDecoder(resp.Body).Decode(&report)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("decoding timeseries: %w", err)
		}
		// Redraw from the top; plain output when stdout is a pipe would
		// interleave escapes, so only clear on repeat polls.
		if poll > 0 {
			fmt.Print("\033[H\033[2J")
		}
		fmt.Printf("paco-obs watch %s — %d series, %d sampling passes, every %dms\n\n",
			base, len(report.Series), report.Samples, report.IntervalMS)
		shown := 0
		for _, s := range report.Series {
			if *family != "" && s.Family != *family && !strings.Contains(s.Family, *family) {
				continue
			}
			name := s.Family + s.Labels
			if len(name) > 52 {
				name = name[:49] + "..."
			}
			fmt.Printf("%-52s %s  last %s (min %s max %s)\n",
				name, sparkline(s.Points), fmtVal(s.Last), fmtVal(s.Min), fmtVal(s.Max))
			shown++
		}
		if shown == 0 {
			fmt.Println("(no matching series yet)")
		}
	}
	return nil
}

// campaignReport mirrors the pieces of server.CampaignReport the
// assertions need.
type campaignReport struct {
	Schema string `json:"schema"`
	Key    string `json:"key"`
	Status string `json:"status"`
	Cells  int    `json:"cells"`
	Exec   *struct {
		Mode             string  `json:"mode"`
		WallSeconds      float64 `json:"wall_seconds"`
		SimSeconds       float64 `json:"sim_seconds"`
		QueueWaitSeconds float64 `json:"queue_wait_seconds"`
		CellsObserved    int     `json:"cells_observed"`
		StragglerIndex   float64 `json:"straggler_index"`
		ImbalanceRatio   float64 `json:"imbalance_ratio"`
		Workers          []struct {
			Worker        string  `json:"worker"`
			Shards        int     `json:"shards"`
			Cells         int     `json:"cells"`
			BusySeconds   float64 `json:"busy_seconds"`
			KCyclesPerSec float64 `json:"kcycles_per_sec"`
		} `json:"workers"`
	} `json:"exec"`
}

// report fetches /v1/campaigns/{id}/report?exec=1, prints the
// execution summary, and applies threshold assertions.
func report(base string, args []string) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	id := fs.String("id", "", "campaign (job) ID (required)")
	minWorkers := fs.Int("min-workers", 0, "exit nonzero unless at least this many workers executed cells")
	maxStraggler := fs.Float64("max-straggler", 0, "exit nonzero when the straggler index exceeds this (0 = no check)")
	maxImbalance := fs.Float64("max-imbalance", 0, "exit nonzero when the worker cell-imbalance ratio exceeds this (0 = no check)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("report: -id is required")
	}
	resp, err := get(base + "/v1/campaigns/" + url.PathEscape(*id) + "/report?exec=1")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var rep campaignReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return fmt.Errorf("decoding campaign report: %w", err)
	}
	if rep.Exec == nil {
		return fmt.Errorf("report for %s carries no execution layer", *id)
	}
	ex := rep.Exec
	fmt.Printf("campaign %s: %d cells, %s mode\n", *id, rep.Cells, ex.Mode)
	fmt.Printf("  wall %.3fs, sim %.3fs (parallelism %.2fx), queue-wait %.3fs\n",
		ex.WallSeconds, ex.SimSeconds, safeDiv(ex.SimSeconds, ex.WallSeconds), ex.QueueWaitSeconds)
	fmt.Printf("  straggler index %.3f, imbalance ratio %.3f, %d/%d cell spans observed\n",
		ex.StragglerIndex, ex.ImbalanceRatio, ex.CellsObserved, rep.Cells)
	for _, w := range ex.Workers {
		fmt.Printf("  worker %-12s %2d shard(s) %4d cell(s) busy %.3fs  %s kcycles/s\n",
			w.Worker, w.Shards, w.Cells, w.BusySeconds, fmtVal(w.KCyclesPerSec))
	}

	var violations []string
	if *minWorkers > 0 && len(ex.Workers) < *minWorkers {
		violations = append(violations,
			fmt.Sprintf("%d worker(s) executed cells, want >= %d", len(ex.Workers), *minWorkers))
	}
	if *maxStraggler > 0 && ex.StragglerIndex > *maxStraggler {
		violations = append(violations,
			fmt.Sprintf("straggler index %.3f exceeds %.3f", ex.StragglerIndex, *maxStraggler))
	}
	if *maxImbalance > 0 && ex.ImbalanceRatio > *maxImbalance {
		violations = append(violations,
			fmt.Sprintf("imbalance ratio %.3f exceeds %.3f", ex.ImbalanceRatio, *maxImbalance))
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "report:", v)
		}
		return fmt.Errorf("%d threshold violation(s)", len(violations))
	}
	fmt.Println("report: thresholds hold")
	return nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

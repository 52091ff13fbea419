package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// cannedTimeseries is a /v1/timeseries body with one simulator series
// and one HTTP series.
const cannedTimeseries = `{"interval_ms":1000,"series_held":2,"series_dropped":0,"samples":3,"series":[
{"family":"paco_sim_cycles_total","type":"counter","points":[{"t":1,"v":1},{"t":2,"v":2},{"t":3,"v":3}],"min":1,"max":3,"avg":2,"last":3,"rate":1},
{"family":"paco_http_requests_total","type":"counter","labels":"{route=\"/healthz\"}","points":[{"t":1,"v":5}],"min":5,"max":5,"avg":5,"last":5,"rate":0}]}`

// TestWatchRendersFamily: one poll filtered by -family prints the
// matching series' sparkline line and nothing for the other family.
func TestWatchRendersFamily(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/timeseries" || r.URL.Query().Get("points") != "60" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, cannedTimeseries)
	}))
	defer ts.Close()
	out, err := captureStdout(t, func() error {
		return run([]string{"watch", ts.URL, "-n", "1", "-family", "paco_sim"})
	})
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	want := fmt.Sprintf("%-52s ▁▄█  last 3.00 (min 1.00 max 3.00)\n", "paco_sim_cycles_total")
	if !strings.Contains(out, want) {
		t.Errorf("output lacks %q:\n%s", want, out)
	}
	if !strings.Contains(out, "2 series, 3 sampling passes, every 1000ms") || strings.Contains(out, "paco_http") {
		t.Errorf("unexpected header or unfiltered series:\n%s", out)
	}
}

// TestWatchNon200IsError: a 404 fails watch. Its JSON error body
// decodes as a report with no series, so a watch that decoded any reply
// printed "0 series" and exited zero.
func TestWatchNon200IsError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":"no time-series sampler"}`)
	}))
	defer ts.Close()
	out, err := captureStdout(t, func() error {
		return run([]string{"watch", ts.URL, "-n", "1"})
	})
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("watch against a 404: err = %v, want an error naming the status", err)
	}
	if out != "" {
		t.Errorf("watch printed %q before failing", out)
	}
}

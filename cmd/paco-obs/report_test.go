package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"paco/internal/server"
)

// cannedReport is a two-worker campaign report as the server encodes it:
// straggler index 1.5, imbalance ratio 1.25.
func cannedReport(withExec bool) server.CampaignReport {
	rep := server.CampaignReport{Schema: "paco.campaign-report/v1", Key: "k", Status: "done", Cells: 9}
	if withExec {
		rep.Exec = &server.ExecutionReport{
			Mode:          "federated",
			WallSeconds:   2,
			SimSeconds:    3,
			CellsObserved: 9,
			Workers: []server.WorkerReport{
				{Worker: "w1", Shards: 1, Cells: 5, BusySeconds: 1.8, KCyclesPerSec: 900},
				{Worker: "w2", Shards: 1, Cells: 4, BusySeconds: 0.6, KCyclesPerSec: 800},
			},
			StragglerIndex: 1.5,
			ImbalanceRatio: 1.25,
		}
	}
	return rep
}

// reportServer serves rep at the one report URL paco-obs report may
// fetch, and counts the requests it sees.
func reportServer(t *testing.T, rep server.CampaignReport) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	body, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if r.URL.Path != "/v1/campaigns/job-1/report" || r.URL.Query().Get("exec") != "1" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}))
	t.Cleanup(srv.Close)
	return srv, &hits
}

func TestReportThresholds(t *testing.T) {
	srv, _ := reportServer(t, cannedReport(true))
	for _, tc := range []struct {
		flags   []string
		wantErr bool
	}{
		{nil, false},
		{[]string{"-min-workers", "2"}, false},
		{[]string{"-min-workers", "3"}, true},
		{[]string{"-max-straggler", "1.5"}, false},
		{[]string{"-max-straggler", "1.49"}, true},
		{[]string{"-max-imbalance", "1.25"}, false},
		{[]string{"-max-imbalance", "1.2"}, true},
		{[]string{"-min-workers", "2", "-max-straggler", "2", "-max-imbalance", "2"}, false},
		{[]string{"-min-workers", "2", "-max-straggler", "2", "-max-imbalance", "1.1"}, true},
	} {
		args := append([]string{"report", srv.URL, "-id", "job-1"}, tc.flags...)
		err := run(args)
		if (err != nil) != tc.wantErr {
			t.Errorf("paco-obs %s: err = %v, want error %v", strings.Join(args, " "), err, tc.wantErr)
		}
	}
}

func TestReportWithoutExecLayer(t *testing.T) {
	srv, _ := reportServer(t, cannedReport(false))
	err := run([]string{"report", srv.URL, "-id", "job-1"})
	if err == nil || !strings.Contains(err.Error(), "no execution layer") {
		t.Fatalf("report without an exec layer: err = %v, want a missing execution layer error", err)
	}
}

func TestReportRequiresID(t *testing.T) {
	srv, hits := reportServer(t, cannedReport(true))
	err := run([]string{"report", srv.URL, "-min-workers", "1"})
	if err == nil || !strings.Contains(err.Error(), "-id is required") {
		t.Fatalf("report without -id: err = %v, want an -id is required error", err)
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("report without -id made %d request(s), want 0", n)
	}
}

func TestReportUnknownCampaign(t *testing.T) {
	srv, _ := reportServer(t, cannedReport(true))
	if err := run([]string{"report", srv.URL, "-id", "job-2"}); err == nil {
		t.Fatal("report for an unknown campaign succeeded, want the 404 as an error")
	}
}

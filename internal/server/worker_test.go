package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWorkerRejectsInvalidLease runs a real worker loop against a real
// coordinator behind a proxy that corrupts the first lease it relays.
// The worker must post that lease back as an infrastructure error, and
// the coordinator must re-queue the shard, count a retry and complete it
// on the next, intact lease.
func TestWorkerRejectsInvalidLease(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(*ShardLease)
		wantErr string
	}{
		{"no grid", func(l *ShardLease) { l.Grid = nil }, "lease carries no grid"},
		{"range past grid", func(l *ShardLease) { l.Hi = l.Grid.Size() + 1 }, "outside grid's 2 cells"},
		{"empty range", func(l *ShardLease) { l.Lo = l.Hi }, "outside grid's 2 cells"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(Config{Shards: 1, LeaseTTL: time.Minute, SampleInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			s.Start()
			defer s.Close()

			var mu sync.Mutex
			var leased []string // shard IDs, in lease order
			var posted []ShardResultPost
			proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/v1/shards/lease" {
					if strings.HasSuffix(r.URL.Path, "/result") {
						body, err := io.ReadAll(r.Body)
						if err != nil {
							t.Errorf("reading result post: %v", err)
						}
						var post ShardResultPost
						if err := json.Unmarshal(body, &post); err != nil {
							t.Errorf("decoding result post: %v", err)
						}
						mu.Lock()
						posted = append(posted, post)
						mu.Unlock()
						r.Body = io.NopCloser(bytes.NewReader(body))
					}
					s.Handler().ServeHTTP(w, r)
					return
				}
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, r)
				if rec.Code != http.StatusOK {
					w.WriteHeader(rec.Code)
					return
				}
				var lease ShardLease
				if err := json.Unmarshal(rec.Body.Bytes(), &lease); err != nil {
					t.Errorf("decoding lease: %v", err)
					return
				}
				mu.Lock()
				leased = append(leased, lease.ShardID)
				if len(leased) == 1 {
					tc.corrupt(&lease)
				}
				mu.Unlock()
				writeJSON(w, http.StatusOK, lease)
			}))
			defer proxy.Close()

			worker, err := NewWorker(WorkerConfig{Coordinator: proxy.URL, Name: "w1", SimWorkers: 1, Poll: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			stopped := make(chan struct{})
			go func() {
				defer close(stopped)
				worker.Run(ctx)
			}()
			defer func() {
				cancel()
				<-stopped
			}()

			dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer dcancel()
			results, err := s.Distribute(dctx, *tinyGrid(t, 2), 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != 2 {
				t.Fatalf("got %d results, want 2", len(results))
			}
			if got := s.FederationStats().Retries; got != 1 {
				t.Fatalf("retries = %d, want 1", got)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(leased) != 2 || leased[0] != leased[1] {
				t.Fatalf("leases %v, want the same shard leased twice", leased)
			}
			if len(posted) != 2 {
				t.Fatalf("%d result posts, want 2: %+v", len(posted), posted)
			}
			if posted[0].Results != nil || !strings.Contains(posted[0].Error, tc.wantErr) {
				t.Fatalf("first post %+v, want an infrastructure error containing %q", posted[0], tc.wantErr)
			}
			if posted[1].Error != "" || len(posted[1].Results) != 2 {
				t.Fatalf("second post %+v, want the shard's 2 results", posted[1])
			}
		})
	}
}

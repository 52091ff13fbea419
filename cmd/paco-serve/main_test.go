package main

import (
	"reflect"
	"testing"
	"time"

	"paco/internal/server"
)

// TestConfigFromFlags pins the flag → server.Config wiring: each flag
// lands in its own field, and no flags give the documented defaults.
func TestConfigFromFlags(t *testing.T) {
	o, err := configFromFlags([]string{
		"-cache-mb", "128",
		"-cache-dir", "/var/cache/paco",
		"-batch", "4",
		"-j", "3",
		"-jobworkers", "5",
		"-queue", "17",
		"-shards", "6",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := server.Config{
		CacheBytes: 128 << 20,
		CacheDir:   "/var/cache/paco",
		BatchK:     4,
		SimWorkers: 3,
		JobWorkers: 5,
		QueueSize:  17,
		Shards:     6,
		LeaseTTL:   30 * time.Second,
	}
	if !reflect.DeepEqual(o.cfg, want) {
		t.Errorf("config = %+v\nwant     %+v", o.cfg, want)
	}

	o, err = configFromFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	defaults := server.Config{JobWorkers: 2, QueueSize: 64, CacheBytes: 64 << 20, LeaseTTL: 30 * time.Second}
	if !reflect.DeepEqual(o.cfg, defaults) {
		t.Errorf("default config = %+v\nwant             %+v", o.cfg, defaults)
	}
	if o.addr != ":8344" || o.poll != 500*time.Millisecond || o.logLevel != "info" {
		t.Errorf("default options = %+v", o)
	}
}

// TestConfigFromFlagsModes: -quick selects the test-scale experiments,
// the worker flags stay out of the server config, and a worker's
// session endpoint takes only the settings that apply to it.
func TestConfigFromFlagsModes(t *testing.T) {
	o, err := configFromFlags([]string{"-quick", "-route-sessions", "-session-ttl", "2m"})
	if err != nil {
		t.Fatal(err)
	}
	if o.cfg.Experiments == nil || !o.cfg.RouteSessions || o.cfg.SessionTTL != 2*time.Minute {
		t.Errorf("config = %+v", o.cfg)
	}

	o, err = configFromFlags([]string{
		"-coordinator", "http://c:8344", "-worker-name", "w1", "-poll", "100ms",
		"-sessions-addr", "127.0.0.1:0", "-j", "2", "-batch", "1", "-cache-dir", "/tmp/x",
		"-session-max", "9",
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.coordinator != "http://c:8344" || o.workerName != "w1" || o.poll != 100*time.Millisecond || o.sessionsAddr != "127.0.0.1:0" {
		t.Errorf("worker options = %+v", o)
	}
	want := server.Config{JobWorkers: 2, SimWorkers: 2, CacheBytes: 64 << 20, SessionMaxOpen: 9}
	if got := sessionConfig(o.cfg); !reflect.DeepEqual(got, want) {
		t.Errorf("session endpoint config = %+v\nwant                      %+v", got, want)
	}

	if _, err := configFromFlags([]string{"-queue", "many"}); err == nil {
		t.Error("-queue many parsed")
	}
}

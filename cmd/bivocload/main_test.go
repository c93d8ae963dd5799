package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"bivoc/internal/core"
)

// TestLoadSmoke is the black-box harness check `make smoke` runs: build
// the real binary, boot a small call-analysis daemon in the test, point
// -target at it, sweep one rate at two batch sizes with the default
// vocabulary flags, and require a clean exit with a well-formed,
// error-free JSON report.
func TestLoadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the load harness binary")
	}
	bin := filepath.Join(t.TempDir(), "bivocload")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build: %v", err)
	}

	cfg := core.DefaultServeConfig()
	cfg.Addr = "127.0.0.1:0"
	cfg.Analysis.World.CallsPerDay = 60
	cfg.Analysis.World.Days = 2
	s, err := core.NewServeServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	select {
	case <-s.IngestDone():
	case <-time.After(time.Minute):
		t.Fatal("ingest did not seal")
	}

	outPath := filepath.Join(t.TempDir(), "report.json")
	cmd := exec.Command(bin,
		"-target", "http://"+s.Addr(),
		"-qps", "300",
		"-batch", "1,8",
		"-duration", "300ms",
		"-workers", "8",
		"-pool", "32",
		"-out", outPath)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("bivocload: %v", err)
	}

	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Target string `json:"target"`
		Pool   int    `json:"pool"`
		Runs   []struct {
			OfferedQPS  float64 `json:"offered_qps"`
			AchievedQPS float64 `json:"achieved_qps"`
			Requests    int     `json:"requests"`
			Queries     int     `json:"queries"`
			Batch       int     `json:"batch"`
			Errors      int     `json:"errors"`
			SubErrors   int     `json:"sub_errors"`
			Degraded    int     `json:"degraded"`
			P50US       int64   `json:"p50_us"`
			P999US      int64   `json:"p999_us"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, raw)
	}
	if rep.Target != "http://"+s.Addr() || rep.Pool != 32 {
		t.Fatalf("report target %q pool %d, want %q and 32", rep.Target, rep.Pool, "http://"+s.Addr())
	}
	// 2 batch sizes x 1 rate.
	if len(rep.Runs) != 2 || rep.Runs[0].Batch != 1 || rep.Runs[1].Batch != 8 {
		t.Fatalf("report runs are not batch 1 then batch 8:\n%s", raw)
	}
	for _, r := range rep.Runs {
		if r.Errors != 0 || r.SubErrors != 0 || r.Degraded != 0 {
			t.Fatalf("batch=%d: errors=%d sub_errors=%d degraded=%d, want clean", r.Batch, r.Errors, r.SubErrors, r.Degraded)
		}
		if r.Requests == 0 || r.Queries != r.Requests*r.Batch || r.AchievedQPS <= 0 {
			t.Fatalf("batch=%d: implausible run %+v", r.Batch, r)
		}
		if r.P50US <= 0 || r.P999US < r.P50US {
			t.Fatalf("batch=%d: implausible percentiles %+v", r.Batch, r)
		}
	}

	// Without a target there is nothing to drive: a usage error, not a
	// fleet booted on the side.
	if err := exec.Command(bin, "-qps", "300").Run(); err == nil {
		t.Error("bivocload without -target exited 0")
	}
}

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"bivoc"
)

// TestFedDaemonSmoke is the black-box federation check: start two
// in-process bivocd shards over a split corpus, build and run the real
// bivocfed binary against them, require the announced address to be the
// actual bound one, query through the coordinator until the full corpus
// is served, then SIGINT it and require a clean, graceful exit.
func TestFedDaemonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the coordinator binary")
	}

	// Two shard daemons in-process: same world, each ingesting only the
	// calls ShardOf assigns to it.
	const nShards = 2
	shardURLs := make([]string, nShards)
	for i := 0; i < nShards; i++ {
		cfg := bivoc.DefaultServeConfig()
		cfg.Addr = "127.0.0.1:0"
		cfg.SwapInterval = 0
		cfg.SwapEvery = 8
		cfg.Analysis.World.CallsPerDay = 20
		cfg.Analysis.World.Days = 2
		cfg.ShardIndex = i
		cfg.ShardCount = nShards
		s, err := bivoc.NewQueryServer(cfg)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if err := s.Start(); err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		}()
		shardURLs[i] = "http://" + s.Addr()
	}

	bin := filepath.Join(t.TempDir(), "bivocfed")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build: %v", err)
	}

	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-shards", strings.Join(shardURLs, ","),
		"-pprof", "127.0.0.1:0")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The coordinator prints its bound address once the listener is live,
	// then the profile listener's.
	sc := bufio.NewScanner(stdout)
	var addr, pprofBase string
	lineCh := make(chan string, 8)
	go func() {
		for sc.Scan() {
			lineCh <- sc.Text()
		}
		close(lineCh)
	}()
	deadline := time.After(30 * time.Second)
	for addr == "" || pprofBase == "" {
		select {
		case line, ok := <-lineCh:
			if !ok {
				t.Fatal("coordinator exited before announcing its addresses")
			}
			if _, rest, found := strings.Cut(line, "listening on "); found {
				addr = strings.Fields(rest)[0]
			}
			if _, rest, found := strings.Cut(line, "pprof at "); found {
				pprofBase = strings.TrimSuffix(rest, "/debug/pprof/")
			}
		case <-deadline:
			t.Fatal("coordinator did not announce its address in time")
		}
	}
	// -addr was :0, so the announced address must be the actual bound
	// one — a concrete nonzero port, not the wildcard back.
	if _, port, err := net.SplitHostPort(addr); err != nil || port == "0" || port == "" {
		t.Fatalf("announced address %q is not a concrete bound address (err %v)", addr, err)
	}
	base := "http://" + addr

	// -pprof serves the runtime profiles on its own listener and nowhere
	// else: the serving listener must not know the path.
	for target, want := range map[string]int{
		pprofBase + "/debug/pprof/heap": http.StatusOK,
		base + "/debug/pprof/heap":      http.StatusNotFound,
	} {
		resp, err := http.Get(target)
		if err != nil {
			t.Fatalf("GET %s: %v", target, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", target, resp.StatusCode, want)
		}
	}

	get := func(path string) ([]byte, http.Header) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return body, resp.Header
	}

	var health struct {
		Status string `json:"status"`
		Shards []struct {
			OK bool `json:"ok"`
		} `json:"shards"`
	}
	hb, _ := get("/healthz")
	if err := json.Unmarshal(hb, &health); err != nil || len(health.Shards) != nShards {
		t.Fatalf("healthz = %s, err %v", hb, err)
	}

	var count struct {
		Total    int  `json:"total"`
		Degraded bool `json:"degraded"`
	}
	q := "/v1/count?" + url.Values{"dim": {"outcome=reservation"}}.Encode()
	// Shard ingest may still be warming up; wait until the federated
	// total covers the whole 40-call corpus.
	var genVec string
	for i := 0; ; i++ {
		body, hdr := get(q)
		count = struct {
			Total    int  `json:"total"`
			Degraded bool `json:"degraded"`
		}{}
		if err := json.Unmarshal(body, &count); err != nil {
			t.Fatal(err)
		}
		genVec = hdr.Get("X-Bivoc-Generation")
		if count.Total == 40 {
			break
		}
		if i > 600 {
			t.Fatalf("federated index never reached 40 docs (total=%d)", count.Total)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if count.Degraded {
		t.Error("federated count reported degraded with all shards up")
	}
	if parts := strings.Split(genVec, ","); len(parts) != nShards {
		t.Errorf("generation vector %q: want %d entries", genVec, nShards)
	}

	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	// Drain stdout to EOF before Wait — Wait closes the pipe and would
	// race the scanner out of the final lines.
	var sawStopped bool
	drainDeadline := time.After(15 * time.Second)
drain:
	for {
		select {
		case line, ok := <-lineCh:
			if !ok {
				break drain
			}
			if strings.Contains(line, "stopped cleanly") {
				sawStopped = true
			}
		case <-drainDeadline:
			t.Fatal("coordinator did not close stdout after SIGINT")
		}
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("coordinator exited non-zero after SIGINT: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("coordinator did not exit after SIGINT")
	}
	if !sawStopped {
		t.Error("coordinator did not report a clean stop")
	}
}

// TestFedDaemonSmokeSignalAtStartup is the coordinator's half of the
// start-up signal regression (see cmd/bivocd): interrupted the instant its
// address line is read, over and over, it must drain, say so, and exit 0 —
// the handler is installed before the listener is announced. No shard
// needs to be up for that: the coordinator dials none until it is asked.
func TestFedDaemonSmokeSignalAtStartup(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the coordinator binary")
	}
	bin := filepath.Join(t.TempDir(), "bivocfed")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build: %v", err)
	}
	for i := 0; i < 10; i++ {
		cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-shards", "http://127.0.0.1:1")
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		hung := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
		var lines []string
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines = append(lines, sc.Text())
			if strings.Contains(sc.Text(), "listening on ") {
				if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Stdout is at EOF, so Wait races nothing out of the pipe.
		err = cmd.Wait()
		hung.Stop()
		if err != nil {
			t.Fatalf("run %d: coordinator exited non-zero after SIGINT at start-up: %v (stdout %q)", i, err, lines)
		}
		if len(lines) == 0 || !strings.Contains(lines[len(lines)-1], "stopped cleanly") {
			t.Fatalf("run %d: coordinator did not report a clean stop: %q", i, lines)
		}
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
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
)

// TestDaemonSmoke is the black-box daemon check `make check` runs:
// build the real binary, start it, hit /healthz and a /v1/count query,
// then SIGINT it and require a clean, graceful exit.
func TestDaemonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := filepath.Join(t.TempDir(), "bivocd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build: %v", err)
	}

	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-calls", "20", "-days", "2",
		"-swap-every", "8",
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

	// The daemon prints its bound address once the listener is live, then
	// the profile listener's.
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
				t.Fatal("daemon exited before announcing its addresses")
			}
			if _, rest, found := strings.Cut(line, "listening on "); found {
				addr = strings.Fields(rest)[0]
			}
			if _, rest, found := strings.Cut(line, "pprof at "); found {
				pprofBase = strings.TrimSuffix(rest, "/debug/pprof/")
			}
		case <-deadline:
			t.Fatal("daemon did not announce its address in time")
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

	get := func(path string) []byte {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return body
	}

	var health struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(get("/healthz"), &health); err != nil || health.Status != "ok" {
		t.Fatalf("healthz = %+v, err %v", health, err)
	}

	var count struct {
		Total  int   `json:"total"`
		Counts []int `json:"counts"`
	}
	q := "/v1/count?" + url.Values{"dim": {"outcome=reservation"}}.Encode()
	// Ingest may still be warming up; wait until the sealed index (40
	// calls) is served.
	for i := 0; ; i++ {
		if err := json.Unmarshal(get(q), &count); err != nil {
			t.Fatal(err)
		}
		if count.Total == 40 {
			break
		}
		if i > 600 {
			t.Fatalf("index never reached 40 docs (total=%d)", count.Total)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if count.Counts[0] == 0 || count.Counts[0] >= count.Total {
		t.Errorf("implausible reservation count %d of %d", count.Counts[0], count.Total)
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
			t.Fatal("daemon did not close stdout after SIGINT")
		}
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("daemon exited non-zero after SIGINT: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit after SIGINT")
	}
	if !sawStopped {
		t.Error("daemon did not report a clean stop")
	}
}

// daemon is one running bivocd under test: its base URL, its stdout
// lines, and a stop func that SIGINTs and requires a clean exit.
type daemon struct {
	t     *testing.T
	cmd   *exec.Cmd
	base  string
	lines []string // stdout seen before the address line
	ch    chan string
}

// startDaemon launches bin with args and waits for the address line.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	d := &daemon{t: t, cmd: cmd, ch: make(chan string, 64)}
	sc := bufio.NewScanner(stdout)
	go func() {
		for sc.Scan() {
			d.ch <- sc.Text()
		}
		close(d.ch)
	}()
	deadline := time.After(30 * time.Second)
	for d.base == "" {
		select {
		case line, ok := <-d.ch:
			if !ok {
				t.Fatal("daemon exited before announcing its address")
			}
			d.lines = append(d.lines, line)
			if _, rest, found := strings.Cut(line, "listening on "); found {
				d.base = "http://" + strings.Fields(rest)[0]
			}
		case <-deadline:
			t.Fatal("daemon did not announce its address in time")
		}
	}
	return d
}

func (d *daemon) get(path string) []byte {
	d.t.Helper()
	resp, err := http.Get(d.base + path)
	if err != nil {
		d.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		d.t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	return body
}

// waitSealedTotal polls /v1/count until the sealed index serves want
// documents, returning the final response with the publication-cadence
// dependent generation field normalized out (restart runs publish a
// different number of snapshots over the same corpus).
func (d *daemon) waitSealedTotal(want int) string {
	d.t.Helper()
	var count struct {
		Sealed bool     `json:"sealed"`
		Total  int      `json:"total"`
		Dims   []string `json:"dims"`
		Counts []int    `json:"counts"`
	}
	q := "/v1/count?" + url.Values{"dim": {"outcome=reservation"}}.Encode()
	for i := 0; ; i++ {
		if err := json.Unmarshal(d.get(q), &count); err != nil {
			d.t.Fatal(err)
		}
		if count.Sealed && count.Total == want {
			count.Sealed = false
			norm, err := json.Marshal(count)
			if err != nil {
				d.t.Fatal(err)
			}
			return string(norm)
		}
		if i > 600 {
			d.t.Fatalf("index never sealed at %d docs (sealed=%v total=%d)", want, count.Sealed, count.Total)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// stop SIGINTs the daemon, drains stdout, and requires a clean exit.
// It returns every stdout line the daemon printed.
func (d *daemon) stop() []string {
	d.t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGINT); err != nil {
		d.t.Fatal(err)
	}
	var sawStopped bool
	drainDeadline := time.After(15 * time.Second)
drain:
	for {
		select {
		case line, ok := <-d.ch:
			if !ok {
				break drain
			}
			d.lines = append(d.lines, line)
			if strings.Contains(line, "stopped cleanly") {
				sawStopped = true
			}
		case <-drainDeadline:
			d.t.Fatal("daemon did not close stdout after SIGINT")
		}
	}
	exited := make(chan error, 1)
	go func() { exited <- d.cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			d.t.Fatalf("daemon exited non-zero after SIGINT: %v", err)
		}
	case <-time.After(15 * time.Second):
		d.t.Fatal("daemon did not exit after SIGINT")
	}
	if !sawStopped {
		d.t.Error("daemon did not report a clean stop")
	}
	return d.lines
}

// TestDaemonSmokeMapped is the -mmap black-box check (the name rides
// `make smoke`'s -run TestDaemonSmoke pattern): run a durable daemon
// cold to seal a corpus on disk, then boot it again with -mmap and
// require the warm restart to recover from the mapped segment and
// answer identically to the cold run.
func TestDaemonSmokeMapped(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := filepath.Join(t.TempDir(), "bivocd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build: %v", err)
	}
	dataDir := filepath.Join(t.TempDir(), "data")
	args := func(extra ...string) []string {
		return append([]string{
			"-addr", "127.0.0.1:0",
			"-calls", "20", "-days", "2",
			"-swap-every", "8",
			"-data-dir", dataDir,
		}, extra...)
	}

	// Cold run: ingest, seal, persist — already under -mmap, which only
	// kicks in for recovered and compacted segments.
	cold := startDaemon(t, bin, args("-mmap")...)
	want := cold.waitSealedTotal(40)
	cold.stop()

	// Warm run: recovery serves the sealed corpus from a mapped segment.
	warm := startDaemon(t, bin, args("-mmap")...)
	if got := warm.waitSealedTotal(40); got != want {
		t.Errorf("mapped warm restart drifted:\n cold %s\n warm %s", want, got)
	}
	var sz struct {
		Store struct {
			MappedSegments int `json:"mapped_segments"`
		} `json:"store"`
		Memory struct {
			HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
		} `json:"memory"`
	}
	if err := json.Unmarshal(warm.get("/statsz"), &sz); err != nil {
		t.Fatal(err)
	}
	if sz.Store.MappedSegments < 1 {
		t.Errorf("warm -mmap daemon serves %d mapped segments, want >= 1", sz.Store.MappedSegments)
	}
	if sz.Memory.HeapAllocBytes == 0 {
		t.Error("statsz memory section is empty")
	}
	lines := warm.stop()
	var sawRecovery bool
	for _, line := range lines {
		if strings.Contains(line, "recovered 40 docs from segment") {
			sawRecovery = true
		}
	}
	if !sawRecovery {
		t.Errorf("warm restart did not report segment recovery; stdout: %q", lines)
	}

	// -mmap without -data-dir is a usage error.
	bad := exec.Command(bin, "-addr", "127.0.0.1:0", "-mmap")
	if err := bad.Run(); err == nil {
		t.Error("-mmap without -data-dir did not fail")
	}
}

// TestDaemonSmokeSkippedSegment restarts a durable daemon over a data
// directory one of whose live segments is damaged (the name rides `make
// smoke`'s -run TestDaemonSmoke pattern). The restart passes the damaged
// generation over, says so on /statsz under store.skipped_segments,
// re-ingests the documents it held and serves what the first run served.
func TestDaemonSmokeSkippedSegment(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := filepath.Join(t.TempDir(), "bivocd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build: %v", err)
	}
	dataDir := filepath.Join(t.TempDir(), "data")
	args := []string{"-addr", "127.0.0.1:0", "-calls", "20", "-days", "2", "-swap-every", "8", "-data-dir", dataDir}

	first := startDaemon(t, bin, args...)
	want := first.waitSealedTotal(40)
	first.stop()

	// Flip one byte in the middle of the oldest live segment.
	manifest, err := os.ReadFile(filepath.Join(dataDir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(string(manifest)) // "BVMF", "1", then one generation a line
	if len(lines) < 3 {
		t.Fatalf("MANIFEST names no segment: %q", manifest)
	}
	var gen int
	if _, err := fmt.Sscan(lines[2], &gen); err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprintf("seg-%016d.seg", gen)
	seg, err := os.ReadFile(filepath.Join(dataDir, name))
	if err != nil {
		t.Fatal(err)
	}
	seg[len(seg)/2] ^= 0x10
	if err := os.WriteFile(filepath.Join(dataDir, name), seg, 0o644); err != nil {
		t.Fatal(err)
	}

	restart := startDaemon(t, bin, args...)
	if got := restart.waitSealedTotal(40); got != want {
		t.Errorf("restart over a damaged segment drifted:\n first   %s\n restart %s", want, got)
	}
	var sz struct {
		Store struct {
			SkippedSegments []string `json:"skipped_segments"`
		} `json:"store"`
	}
	if err := json.Unmarshal(restart.get("/statsz"), &sz); err != nil {
		t.Fatal(err)
	}
	if len(sz.Store.SkippedSegments) != 1 || sz.Store.SkippedSegments[0] != name {
		t.Errorf("statsz store.skipped_segments = %q, want [%q]", sz.Store.SkippedSegments, name)
	}
	restart.stop()
}

// TestDaemonSmokeSignalAtStartup is the regression test for the start-up
// signal race behind the TestDaemonSmokeMapped flake ("exited non-zero
// after SIGINT: signal: interrupt"): the daemon used to print its address
// lines, and serve, before it had a SIGINT handler, so a signal landing in
// that gap killed it with the default disposition. A warm -mmap restart is
// the shortest path to a serving daemon, so that is what gets interrupted
// the instant its address line is read, over and over; every time it must
// drain, say so, and exit 0.
func TestDaemonSmokeSignalAtStartup(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := filepath.Join(t.TempDir(), "bivocd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build: %v", err)
	}
	args := []string{
		"-addr", "127.0.0.1:0",
		"-calls", "20", "-days", "2",
		"-data-dir", filepath.Join(t.TempDir(), "data"),
		"-mmap",
	}
	cold := startDaemon(t, bin, args...)
	cold.waitSealedTotal(40)
	cold.stop()
	for i := 0; i < 10; i++ {
		startDaemon(t, bin, args...).stop()
	}
}

package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"bivoc/internal/voctest"
)

func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "ok\n") })
}

func stopLifecycle(t *testing.T, l *Lifecycle) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// occupy binds a loopback port so that a Start on it must fail, and
// returns its address and the release.
func occupy(t *testing.T) (addr string, release func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln.Addr().String(), func() { ln.Close() }
}

// TestLifecycle walks the listener both daemons and -pprof run on
// through every edge of its contract, in the order a process meets them.
func TestLifecycle(t *testing.T) {
	var l Lifecycle
	if got := l.Addr(); got != "" {
		t.Fatalf("Addr before Start = %q, want empty", got)
	}
	if err := l.Shutdown(context.Background()); err == nil || !strings.Contains(err.Error(), "Shutdown before Start") {
		t.Fatalf("Shutdown before Start: %v", err)
	}

	addr, release := occupy(t)
	if err := l.Start(addr, okHandler()); err == nil || !strings.Contains(err.Error(), addr) {
		t.Fatalf("Start on an occupied port: %v, want a listen error naming %s", err, addr)
	}
	if got := l.Addr(); got != "" {
		t.Fatalf("Addr after a failed bind = %q, want empty", got)
	}
	release()
	if err := l.Start(addr, okHandler()); err != nil {
		t.Fatalf("Start after the failed bind: %v", err)
	}
	if got := l.Addr(); got != addr {
		t.Fatalf("Addr = %q, want %q", got, addr)
	}
	if status, body := get(t, "http://"+addr+"/"); status != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("GET = %d %q", status, body)
	}
	if err := l.Start("", okHandler()); err == nil || !strings.Contains(err.Error(), "Start called twice") {
		t.Fatalf("second Start: %v", err)
	}

	stopLifecycle(t, &l)
	if _, err := testClient.Get("http://" + addr + "/"); err == nil {
		t.Error("listener still accepting after Shutdown")
	}
	stopLifecycle(t, &l) // a second Shutdown finds nothing left to do
}

// TestSlowHeaderClientDisconnected pins the slowloris hardening: a
// client that dials and then trickles (or never sends) its request
// header is cut off once the header timeout elapses, instead of pinning
// the connection forever.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	l := Lifecycle{readHeaderTimeout: 150 * time.Millisecond}
	if err := l.Start("", okHandler()); err != nil {
		t.Fatal(err)
	}
	defer stopLifecycle(t, &l)

	conn, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Start a request line but never finish the header section.
	if _, err := fmt.Fprintf(conn, "GET /v1/count HTTP/1.1\r\nHost: x\r\nX-Slow:"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	_, err = conn.Read(buf)
	if err == nil {
		t.Fatal("expected the server to close the slow-header connection, got bytes instead")
	}
	// A deadline error here means the server never closed the
	// connection — exactly the slowloris pin this hardening removes.
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("server left the slow-header connection open past the header timeout")
	}
	// The server must still answer well-formed requests afterwards.
	if status, _ := get(t, "http://"+l.Addr()+"/"); status != http.StatusOK {
		t.Fatalf("request after slowloris cutoff: status = %d", status)
	}
}

// TestServerStartsAfterFailedBind: a daemon whose port was taken has
// started nothing — no ingest, no latch — so the same Server starts once
// the port is free, ingests its corpus exactly once, and only then
// refuses a second Start.
func TestServerStartsAfterFailedBind(t *testing.T) {
	addr, release := occupy(t)
	s, err := New(Config{Addr: addr, Source: sliceSource(voctest.ParityDocs(12))})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err == nil {
		t.Fatal("Shutdown before Start returned nil")
	}
	if err := s.Start(); err == nil || !strings.HasPrefix(err.Error(), "server: listen "+addr) {
		t.Fatalf("Start on an occupied port: %v", err)
	}
	select {
	case <-s.IngestDone():
		t.Fatal("a failed Start ran the ingest loop")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := s.Start(); err != nil {
		t.Fatalf("Start after the failed bind: %v", err)
	}
	defer shutdownServer(t, s)
	waitIngestDone(t, s)
	if err := s.Start(); err == nil || err.Error() != "server: Start called twice" {
		t.Fatalf("second Start: %v", err)
	}
	if _, docs, sealed := s.SnapshotInfo(); docs != 12 || !sealed {
		t.Fatalf("snapshot holds %d docs (sealed=%v), want the 12 ingested once", docs, sealed)
	}
}

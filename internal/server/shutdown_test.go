package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bivoc/internal/mining"
	"bivoc/internal/voctest"
)

// TestGracefulShutdownDrainsInFlight proves the shutdown contract: once
// Shutdown is called, requests already accepted run to completion (no
// request dropped mid-flight), the ingest loop stops cleanly, and
// Shutdown returns without error. The test wraps the server's handler in
// one that sleeps before serving, so requests are genuinely in flight
// when the drain begins.
func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	// A source that trickles forever until cancelled: shutdown must stop
	// it via context, not by exhausting it.
	src := func(ctx context.Context, _ func(string) bool, emit func(mining.Document) error) error {
		for i := 0; ; i++ {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Millisecond):
			}
			if err := emit(voctest.ParityDoc(i)); err != nil {
				return err
			}
		}
	}
	s, err := New(Config{Source: src, SwapEvery: 20})
	if err != nil {
		t.Fatal(err)
	}
	mux := s.mux
	s.mux = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond)
		mux.ServeHTTP(w, r)
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	u := "http://" + s.Addr() + "/v1/count?dim=parity%3Deven"

	const clients = 8
	var (
		shutdownStarted atomic.Bool
		shutdownAt      time.Time
		stop            = make(chan struct{})
		wg              sync.WaitGroup
		mu              sync.Mutex
		drained         int // requests started before Shutdown, finished after
		failures        []error
	)
	client := testClient
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				began := time.Now()
				resp, err := client.Get(u)
				if err != nil {
					// A refused connection is only legal once the drain has
					// begun (checked after the failure, so a request racing
					// the listener close is not misattributed).
					if !shutdownStarted.Load() {
						mu.Lock()
						failures = append(failures, fmt.Errorf("pre-shutdown request failed: %w", err))
						mu.Unlock()
					}
					return
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil || resp.StatusCode != http.StatusOK {
					// An accepted request must complete with a full, valid
					// response even when the drain races it.
					mu.Lock()
					failures = append(failures, fmt.Errorf("request dropped mid-flight: status=%d err=%v", resp.StatusCode, rerr))
					mu.Unlock()
					return
				}
				var r CountResponse
				if err := json.Unmarshal(body, &r); err != nil {
					mu.Lock()
					failures = append(failures, fmt.Errorf("truncated body %q: %v", body, err))
					mu.Unlock()
					return
				}
				if shutdownStarted.Load() && began.Before(shutdownAt) {
					mu.Lock()
					drained++
					mu.Unlock()
				}
			}
		}()
	}

	// Let traffic and a few swaps build up, then pull the plug while
	// handlers sleep inside their 20ms delay.
	time.Sleep(150 * time.Millisecond)
	shutdownAt = time.Now()
	shutdownStarted.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("graceful shutdown returned error: %v", err)
	}
	close(stop)
	wg.Wait()

	for _, f := range failures {
		t.Error(f)
	}
	if drained == 0 {
		t.Error("no request straddled the shutdown — drain path not exercised; raise the handler's sleep")
	}
	if err := s.IngestErr(); err != nil {
		t.Errorf("shutdown-initiated cancellation surfaced as ingest error: %v", err)
	}
	if _, _, sealed := s.SnapshotInfo(); sealed {
		t.Error("cancelled-mid-stream ingest must not publish a sealed snapshot")
	}
	t.Logf("%d in-flight requests drained across shutdown", drained)
}

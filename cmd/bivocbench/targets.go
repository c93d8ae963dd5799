package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"bivoc/internal/fed"
	"bivoc/internal/mining"
	"bivoc/internal/server"
)

const fedShards = 4

func sliceSource(docs []mining.Document) server.DocSource {
	return func(_ context.Context, _ func(string) bool, emit func(mining.Document) error) error {
		for _, d := range docs {
			if err := emit(d); err != nil {
				return err
			}
		}
		return nil
	}
}

// startSealed boots one daemon over src on a loopback port and waits
// until the whole source is ingested and sealed.
func startSealed(src server.DocSource, swapEvery int) (*server.Server, error) {
	s, err := server.New(server.Config{
		Addr:        "127.0.0.1:0",
		Source:      src,
		SwapEvery:   swapEvery,
		MaxSegments: -1, // no compaction: the segment count is docs/swapEvery, deterministically
	})
	if err != nil {
		return nil, err
	}
	if err := s.Start(); err != nil {
		return nil, err
	}
	select {
	case <-s.IngestDone():
	case <-time.After(2 * time.Minute):
		shutdown(s.Shutdown)
		return nil, fmt.Errorf("ingest did not seal in two minutes")
	}
	if err := s.IngestErr(); err != nil {
		shutdown(s.Shutdown)
		return nil, fmt.Errorf("ingest: %w", err)
	}
	return s, nil
}

func shutdown(stop func(context.Context) error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = stop(ctx) // a drain that times out still closes the listener; nothing to do about it here
}

// serve hosts h on a loopback port of the benchmark's own, which is how
// a traced run puts a span around a daemon's handler without touching
// the daemon. stop returns once the server has shut down.
func serve(h http.Handler) (base string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	// The daemons' own timeouts and header bound, so that the traced
	// listener pays per request what theirs pays.
	server.HardenHTTPServer(hs, 0, 0, 0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln) // always returns ErrServerClosed after Shutdown
	}()
	return "http://" + ln.Addr().String(), func() { shutdown(hs.Shutdown); <-done }, nil
}

// target is a booted system under test. base is the address clients
// drive; traced, set only under a recorder, is a second listener whose
// handler is wrapped in a span.
type target struct {
	base, traced string
	mono         *server.Server   // nil for a fleet
	shards       []*server.Server // nil for a single daemon
	stops        []func()         // run in reverse order
}

func (t *target) stop() {
	for i := len(t.stops) - 1; i >= 0; i-- {
		t.stops[i]()
	}
	t.stops = nil
}

// bootMono boots the single daemon: the corpus in sealed segments of
// swapEvery documents behind the default 256-entry result cache.
func bootMono(docs []mining.Document, swapEvery int, rec *recorder) (*target, error) {
	s, err := startSealed(sliceSource(docs), swapEvery)
	if err != nil {
		return nil, fmt.Errorf("booting mono: %w", err)
	}
	t := &target{base: "http://" + s.Addr(), mono: s}
	t.stops = append(t.stops, func() { shutdown(s.Shutdown) })
	if rec != nil {
		base, stop, err := serve(rec.wrap("server.handler", "server.http", s.Handler()))
		if err != nil {
			t.stop()
			return nil, err
		}
		t.traced = base
		t.stops = append(t.stops, stop)
	}
	return t, nil
}

// bootFed boots four shard daemons over the hash-partitioned corpus and
// a coordinator with default settings in front. Under a recorder the
// coordinator reaches every shard through a span-wrapped listener, so a
// scatter shows up as four overlapping children of the coordinator's
// handler span.
func bootFed(docs []mining.Document, swapEvery int, rec *recorder) (*target, error) {
	t := &target{}
	urls := make([]string, fedShards)
	for i := range urls {
		s, err := startSealed(fed.PartitionSource(sliceSource(docs), i, fedShards), swapEvery)
		if err != nil {
			t.stop()
			return nil, fmt.Errorf("booting shard %d: %w", i, err)
		}
		t.shards = append(t.shards, s)
		t.stops = append(t.stops, func() { shutdown(s.Shutdown) })
		urls[i] = "http://" + s.Addr()
		if rec != nil {
			base, stop, err := serve(rec.wrap("fed.shard", "fed.handler", s.Handler()))
			if err != nil {
				t.stop()
				return nil, err
			}
			urls[i] = base
			t.stops = append(t.stops, stop)
		}
	}
	c, err := fed.NewCoordinator(fed.Config{Addr: "127.0.0.1:0", Shards: urls})
	if err == nil {
		err = c.Start()
	}
	if err != nil {
		t.stop()
		return nil, fmt.Errorf("booting coordinator: %w", err)
	}
	t.base = "http://" + c.Addr()
	t.stops = append(t.stops, func() { shutdown(c.Shutdown) })
	if rec != nil {
		base, stop, err := serve(rec.wrap("fed.handler", "fed.http", c.Handler()))
		if err != nil {
			t.stop()
			return nil, err
		}
		t.traced = base
		t.stops = append(t.stops, stop)
	}
	return t, nil
}

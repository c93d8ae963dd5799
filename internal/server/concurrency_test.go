package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bivoc/internal/mining"
	"bivoc/internal/voctest"
)

// TestConcurrentQueriesDuringSwaps is the torn-read suite: N client
// goroutines hammer /v1/count while the ingest loop publishes a new
// snapshot every SwapEvery documents. Every document carries exactly
// one of parity=even / parity=odd, so for ANY self-consistent snapshot
// counts[even] + counts[odd] == total. A torn read — mixing data from
// two generations — breaks that identity. We also check each client
// observes monotonically non-decreasing generations, and that no
// response claims a generation newer than the server has published
// (a cache serving stale bytes under a bumped generation would).
//
// Run under -race via `make check` / `go test -race`.
func TestConcurrentQueriesDuringSwaps(t *testing.T) {
	const (
		totalDocs = 1000
		swapEvery = 25
		clients   = 8
	)
	docs := voctest.ParityDocs(totalDocs)
	// Trickle the docs so the swaps interleave with queries instead of
	// finishing before the clients ramp up.
	src := func(ctx context.Context, _ func(string) bool, emit func(mining.Document) error) error {
		for _, d := range docs {
			if err := emit(d); err != nil {
				return err
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(50 * time.Microsecond):
			}
		}
		return nil
	}
	s := startServer(t, Config{Source: src, SwapEvery: swapEvery})
	u := "http://" + s.Addr() + "/v1/count?" +
		url.Values{"dim": {"parity=even", "parity=odd"}}.Encode()

	client := testClient
	var queries atomic.Uint64
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastGen uint64
			for {
				if err := checkParityQuery(client, u, s, &lastGen); err != nil {
					errs <- err
					return
				}
				queries.Add(1)
				select {
				case <-s.IngestDone():
					// One last query against the sealed snapshot.
					if err := checkParityQuery(client, u, s, &lastGen); err != nil {
						errs <- err
					}
					queries.Add(1)
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Generation(); got < totalDocs/swapEvery {
		t.Errorf("only %d generations published, want at least %d", got, totalDocs/swapEvery)
	}
	t.Logf("%d queries across %d clients over %d generations", queries.Load(), clients, s.Generation())
}

// checkParityQuery issues one parity count query and verifies the
// self-consistency invariants against the server's published state.
func checkParityQuery(client *http.Client, u string, s *Server, lastGen *uint64) error {
	preGen := s.Generation()
	resp, err := client.Get(u)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	var r CountResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("unmarshal %s: %v", body, err)
	}
	postGen := s.Generation()
	if len(r.Counts) != 2 || r.Counts[0]+r.Counts[1] != r.Total {
		return fmt.Errorf("torn read: even=%v total=%d at gen %d", r.Counts, r.Total, r.Generation)
	}
	// Each generation holds a multiple of swapEvery docs until the seal,
	// and parity alternates, so within a snapshot the split is even.
	if diff := r.Counts[0] - r.Counts[1]; diff < 0 || diff > 1 {
		return fmt.Errorf("parity split impossible for any prefix: %v", r.Counts)
	}
	if r.Generation < preGen {
		return fmt.Errorf("response generation %d older than %d observed before the request", r.Generation, preGen)
	}
	if r.Generation > postGen {
		return fmt.Errorf("response generation %d newer than published %d", r.Generation, postGen)
	}
	if r.Generation < *lastGen {
		return fmt.Errorf("generation went backwards for one client: %d after %d", r.Generation, *lastGen)
	}
	*lastGen = r.Generation
	return nil
}

// TestCacheNeverServesStaleGeneration interleaves the same hot query
// with swaps and asserts the reported total always matches the
// reported generation's exact document count — if a cache hit ever
// crossed a swap, the (generation, total) pair would disagree.
func TestCacheNeverServesStaleGeneration(t *testing.T) {
	const swapEvery = 10
	feed := make(chan mining.Document)
	src := func(ctx context.Context, _ func(string) bool, emit func(mining.Document) error) error {
		for d := range feed {
			if err := emit(d); err != nil {
				return err
			}
		}
		return nil
	}
	s := startServer(t, Config{Source: src, SwapEvery: swapEvery})
	u := "http://" + s.Addr() + "/v1/count?" +
		url.Values{"dim": {"parity=even", "parity=odd"}}.Encode()
	docs := voctest.ParityDocs(100)

	var r CountResponse
	for batch := 0; batch < 10; batch++ {
		for _, d := range docs[batch*swapEvery : (batch+1)*swapEvery] {
			feed <- d
		}
		deadline := time.Now().Add(5 * time.Second)
		for s.Generation() < uint64(batch+1) {
			if time.Now().After(deadline) {
				t.Fatalf("swap %d did not land", batch+1)
			}
			time.Sleep(time.Millisecond)
		}
		// Query the same URL several times per generation: first miss
		// fills the cache, the rest must hit without going stale.
		for q := 0; q < 3; q++ {
			getOK(t, u, &r)
			wantTotal := int(r.Generation) * swapEvery
			if r.Total != wantTotal || r.Counts[0]+r.Counts[1] != wantTotal {
				t.Fatalf("generation %d reports total=%d counts=%v, want %d — stale cache",
					r.Generation, r.Total, r.Counts, wantTotal)
			}
		}
	}
	close(feed)
	waitIngestDone(t, s)
	hits, misses := s.CacheStats()
	if hits == 0 {
		t.Error("no cache hits recorded — the staleness check never exercised the cache")
	}
	// Exactly one miss per generation queried (3 queries each).
	if misses < 10 {
		t.Errorf("misses=%d, want at least one per generation", misses)
	}
	t.Logf("cache: %d hits, %d misses over %d generations", hits, misses, s.Generation())
}

package bivoc_test

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"bivoc"
)

// End-to-end equivalence for the federation subsystem: a bivocfed
// coordinator over N sharded bivocd daemons — each running the real
// call-analysis pipeline over only its ShardOf slice of the corpus —
// must answer every /v1 endpoint byte-identically to one daemon that
// ingested everything. This is the acceptance gate that lets the fleet
// scale out without any observable difference at the API: merges happen
// on integer marginals, and the single float pipeline (Wilson
// intervals, relative frequencies, trend slopes) runs once on the
// merged counts.

// fedFleet boots n sharded daemons plus a coordinator over them, waits
// until every shard has sealed, and returns the coordinator address
// with a stop func.
func fedFleet(t *testing.T, n int) (addr string, stop func()) {
	t.Helper()
	shards := make([]string, n)
	var stops []func()
	stopAll := func() {
		for _, s := range stops {
			s()
		}
	}
	for i := 0; i < n; i++ {
		cfg := storeEquivConfig("")
		cfg.ShardIndex = i
		cfg.ShardCount = n
		s, stopShard := runSealedServer(t, cfg)
		stops = append(stops, stopShard)
		shards[i] = "http://" + s.Addr()
	}
	c, err := bivoc.NewFedCoordinator(bivoc.FedConfig{Addr: "127.0.0.1:0", Shards: shards})
	if err != nil {
		stopAll()
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		stopAll()
		t.Fatal(err)
	}
	stops = append([]func(){func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := c.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}}, stops...)
	return c.Addr(), stopAll
}

// equivOracles returns the two things a fleet over storeEquivConfig's
// corpus is held to, by name of endpoint: under naive=false the bodies of
// mono, one live daemon that ingested everything, under naive=true the
// bodies the naive oracle renders in the test process.
func equivOracles(t *testing.T, mono *bivoc.QueryServer, endpoints map[string]string) map[bool]map[string]string {
	t.Helper()
	cfg := storeEquivConfig("").Analysis
	single := make(map[string]string, len(endpoints))
	for name, path := range endpoints {
		single[name] = fetchBody(t, mono.Addr(), path)
	}
	return map[bool]map[string]string{
		false: single,
		true:  oracleBodies(t, analysisOracle(t, cfg), cfg.Confidence, mono.Generation(), endpoints),
	}
}

// TestFedEndpointsMatchSingleDaemon is the scale-out contract over the
// real pipeline: shard counts {1, 2, 4, 8}, every /v1 endpoint
// byte-identical to the single-daemon bodies (naive=false) and to the
// naive oracle's (naive=true). (/healthz is excluded: the federated body
// legitimately reports per-shard health instead of the single-daemon
// shape.)
func TestFedEndpointsMatchSingleDaemon(t *testing.T) {
	t.Parallel()
	endpoints := storeEquivEndpoints()
	delete(endpoints, "healthz")
	mono, stopMono := runSealedServer(t, storeEquivConfig(""))
	oracles := equivOracles(t, mono, endpoints)
	stopMono()

	for _, naive := range []bool{false, true} {
		for _, n := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("naive=%v/shards-%d", naive, n), func(t *testing.T) {
				t.Parallel()
				want := oracles[naive]
				addr, stop := fedFleet(t, n)
				defer stop()
				for name, path := range endpoints {
					if got := fetchBody(t, addr, path); got != want[name] {
						t.Errorf("%s diverges from its oracle:\n got %s\nwant %s", name, got, want[name])
					}
				}
				// The fleet really is partitioned: the aggregated /statsz
				// docs must cover the whole corpus across n shards.
				var stats struct {
					Docs   int               `json:"docs"`
					Shards []json.RawMessage `json:"shards"`
				}
				if err := json.Unmarshal([]byte(fetchBody(t, addr, "/statsz")), &stats); err != nil {
					t.Fatal(err)
				}
				if stats.Docs != 180 || len(stats.Shards) != n {
					t.Errorf("statsz docs=%d shards=%d, want 180 docs across %d shards", stats.Docs, len(stats.Shards), n)
				}
			})
		}
	}
}

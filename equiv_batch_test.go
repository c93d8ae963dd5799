package bivoc_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"testing"

	"bivoc/internal/server"
)

// End-to-end equivalence for the batched and cached query paths over
// the real call-analysis pipeline: a /v1/batch envelope on the single
// daemon, a /v1/batch envelope on a federated fleet, and a federated GET
// the shards answer from their caches must all carry exactly the bytes
// the plain single-daemon GET serves. Transport shape (batched,
// scattered, cached) must never be observable in the analytics.

// storeEquivBatchQueries mirrors storeEquivEndpoints as /v1/batch
// sub-queries: same endpoints, same parameters, so each sub-result has
// a GET oracle to compare against byte for byte.
func storeEquivBatchQueries() (names []string, queries []server.BatchQuery) {
	weak := "weak start[customer intention]"
	strong := "strong start[customer intention]"
	res := "outcome=reservation"
	unb := "outcome=unbooked"
	conj := weak + " ∧ " + res
	add := func(name, endpoint string, params url.Values) {
		names = append(names, name)
		queries = append(queries, server.BatchQuery{Endpoint: endpoint, Params: params})
	}
	add("count", "count", url.Values{"dim": {res, weak, conj}})
	add("associate", "associate", url.Values{"row": {strong, weak}, "col": {res, unb}, "confidence": {"0.9"}})
	add("relfreq", "relfreq", url.Values{"category": {"discount"}, "featured": {conj}})
	add("drilldown", "drilldown", url.Values{"row": {weak}, "col": {res}, "limit": {"5"}})
	add("trend", "trend", url.Values{"dim": {weak}})
	add("concepts-cat", "concepts", url.Values{"category": {"customer intention"}})
	add("concepts-field", "concepts", url.Values{"field": {"outcome"}})
	return names, queries
}

// postBatch POSTs one /v1/batch request and decodes the envelope's
// results, failing on any transport, status, or sub-status problem.
func postBatch(t *testing.T, addr string, queries []server.BatchQuery) []server.BatchResult {
	t.Helper()
	body, err := json.Marshal(server.BatchRequest{Queries: queries})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/batch: status %d: %s", resp.StatusCode, raw)
	}
	var env server.BatchResponse
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if len(env.Results) != len(queries) {
		t.Fatalf("batch returned %d results for %d queries", len(env.Results), len(queries))
	}
	for i, r := range env.Results {
		if r.Status != http.StatusOK {
			t.Fatalf("batch sub %d: status %d: %s", i, r.Status, r.Body)
		}
	}
	return env.Results
}

// TestBatchAndCachedPathsMatchSingleGETs pins every alternate serving
// path against the single-daemon GET oracle: mono /v1/batch, federated
// /v1/batch at shard counts {1, 4}, and federated GETs (each endpoint
// fetched twice, the repeat answered from the shards' caches) — against
// the single daemon's GET bodies (naive=false) and against the naive
// oracle's (naive=true).
func TestBatchAndCachedPathsMatchSingleGETs(t *testing.T) {
	t.Parallel()
	names, queries := storeEquivBatchQueries()
	endpoints := storeEquivEndpoints()
	delete(endpoints, "healthz")
	// The batch specs must address exactly the oracle URLs, or the
	// comparison proves nothing.
	for i, name := range names {
		path := "/v1/" + queries[i].Endpoint + "?" + url.Values(queries[i].Params).Encode()
		if path != endpoints[name] {
			t.Fatalf("batch spec %s renders %s, oracle path is %s", name, path, endpoints[name])
		}
	}

	mono, stopMono := runSealedServer(t, storeEquivConfig(""))
	oracles := equivOracles(t, mono, endpoints)

	// Mono batch: the same snapshot, one request — held to both.
	for i, sub := range postBatch(t, mono.Addr(), queries) {
		for naive, want := range oracles {
			if got := string(sub.Body) + "\n"; got != want[names[i]] {
				t.Errorf("mono batch %s diverges from the GET oracle (naive=%v):\n got %s\nwant %s", names[i], naive, got, want[names[i]])
			}
		}
	}
	stopMono()

	for _, naive := range []bool{false, true} {
		for _, n := range []int{1, 4} {
			t.Run(fmt.Sprintf("naive=%v/shards-%d", naive, n), func(t *testing.T) {
				t.Parallel()
				want := oracles[naive]
				addr, stop := fedFleet(t, n)
				defer stop()

				// Federated batch: one scatter for the whole set.
				for i, sub := range postBatch(t, addr, queries) {
					if got := string(sub.Body) + "\n"; got != want[names[i]] {
						t.Errorf("fed batch %s diverges from mono GET:\n got %s\nwant %s", names[i], got, want[names[i]])
					}
				}

				// Federated GETs: every fetch scatters, and the shards
				// answer the repeat from their caches — all must carry the
				// oracle bytes.
				for _, name := range names {
					for pass := 0; pass < 2; pass++ {
						if got := fetchBody(t, addr, endpoints[name]); got != want[name] {
							t.Errorf("fed GET %s pass %d diverges from mono:\n got %s\nwant %s", name, pass, got, want[name])
						}
					}
				}
			})
		}
	}
}

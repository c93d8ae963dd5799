package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"bivoc/internal/mining"
	"bivoc/internal/voctest"
)

// postBatch POSTs a BatchRequest and returns status + body.
func postBatch(t *testing.T, base string, req BatchRequest) (int, []byte) {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := testClient.Post(base+"/v1/batch", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("POST /v1/batch: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// batchTestQueries covers every batchable endpoint plus error shapes.
func batchTestQueries() []BatchQuery {
	return []BatchQuery{
		{Endpoint: "count", Params: map[string][]string{"dim": {"topic billing[topic]", "parity=even"}}},
		{Endpoint: "associate", Params: map[string][]string{
			"row": {"billing[topic]", "coverage[topic]"},
			"col": {"outcome=reservation", "outcome=unbooked"},
		}},
		{Endpoint: "relfreq", Params: map[string][]string{"category": {"topic"}, "featured": {"outcome=service"}}},
		{Endpoint: "drilldown", Params: map[string][]string{"row": {"billing[topic]"}, "col": {"outcome=reservation"}, "limit": {"5"}}},
		{Endpoint: "trend", Params: map[string][]string{"dim": {"austin[place]"}}},
		{Endpoint: "concepts", Params: map[string][]string{"category": {"topic"}}},
		{Endpoint: "concepts", Params: map[string][]string{"field": {"outcome"}}},
	}
}

// queryString renders a BatchQuery's params as the GET query string the
// equivalent single-query request would use.
func queryString(bq BatchQuery) string {
	return url.Values(bq.Params).Encode()
}

// singlePath maps a batch endpoint name to its GET path.
func singlePath(endpoint string) string { return "/v1/" + endpoint }

// TestBatchMatchesSingleQueries pins the core batch contract: each
// sub-result's status and body are exactly what the equivalent GET
// endpoint returns (modulo the trailing newline the envelope strips),
// and the whole batch is answered from one generation.
func TestBatchMatchesSingleQueries(t *testing.T) {
	t.Parallel()
	s := startServer(t, Config{Source: sliceSource(voctest.ParityDocs(120))})
	waitIngestDone(t, s)
	base := "http://" + s.Addr()

	queries := batchTestQueries()
	// Error shapes ride along: unknown endpoint, bad dim, missing param.
	queries = append(queries,
		BatchQuery{Endpoint: "nope", Params: map[string][]string{}},
		BatchQuery{Endpoint: "count", Params: map[string][]string{"dim": {"[unclosed"}}},
		BatchQuery{Endpoint: "relfreq", Params: map[string][]string{"featured": {"parity=even"}}},
	)

	status, body := postBatch(t, base, BatchRequest{Queries: queries})
	if status != http.StatusOK {
		t.Fatalf("batch status = %d, body %s", status, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("unmarshal envelope: %v", err)
	}
	if !resp.Sealed {
		t.Fatal("batch over sealed corpus reports sealed=false")
	}
	if len(resp.Results) != len(queries) {
		t.Fatalf("got %d results for %d queries", len(resp.Results), len(queries))
	}
	for i, bq := range queries {
		res := resp.Results[i]
		wantPath := singlePath(bq.Endpoint)
		if bq.Endpoint == "nope" {
			if res.Status != http.StatusBadRequest {
				t.Errorf("query %d (unknown endpoint): status = %d, want 400", i, res.Status)
			}
			continue
		}
		singleStatus, singleBody := get(t, base+wantPath+"?"+queryString(bq))
		if res.Status != singleStatus {
			t.Errorf("query %d (%s): batch status %d != single status %d", i, bq.Endpoint, res.Status, singleStatus)
		}
		if got := append(append([]byte{}, res.Body...), '\n'); !bytes.Equal(got, singleBody) {
			t.Errorf("query %d (%s): batch body differs from single GET\nbatch:  %s\nsingle: %s",
				i, bq.Endpoint, res.Body, singleBody)
		}
		var gen struct {
			Generation uint64 `json:"generation"`
		}
		if res.Status == http.StatusOK {
			if err := json.Unmarshal(res.Body, &gen); err != nil {
				t.Fatalf("query %d: unmarshal sub-body: %v", i, err)
			}
			if gen.Generation != resp.Generation {
				t.Errorf("query %d: sub-generation %d != envelope generation %d", i, gen.Generation, resp.Generation)
			}
		}
	}
}

// TestBatchSharesCacheWithSingleQueries pins the shared-canonicalization
// fix: a dimension first queried through /v1/batch must land the
// follow-up GET /v1/count on the very same snapshot-LRU entry, and vice
// versa — one prepare* implementation, one cache key, both paths.
func TestBatchSharesCacheWithSingleQueries(t *testing.T) {
	s := startServer(t, Config{Source: sliceSource(voctest.ParityDocs(60))})
	waitIngestDone(t, s)
	base := "http://" + s.Addr()

	// Batch first: a miss that populates the cache...
	bq := BatchQuery{Endpoint: "count", Params: map[string][]string{"dim": {"billing[topic] ∧ parity=even"}}}
	if status, body := postBatch(t, base, BatchRequest{Queries: []BatchQuery{bq}}); status != http.StatusOK {
		t.Fatalf("batch status = %d, body %s", status, body)
	}
	hits0, misses0 := s.CacheStats()
	if misses0 == 0 {
		t.Fatal("batch miss did not count")
	}
	// ...that the single GET must hit. Note the conjunct order differs —
	// canonicalization (sorted conjuncts), not string equality, is what
	// keys the cache, and both paths share the one implementation.
	if status, _ := get(t, base+"/v1/count?"+url.Values{"dim": {"parity=even ∧ billing[topic]"}}.Encode()); status != http.StatusOK {
		t.Fatalf("single GET status = %d", status)
	}
	hits1, misses1 := s.CacheStats()
	if hits1 != hits0+1 || misses1 != misses0 {
		t.Fatalf("single GET after batch: hits %d→%d misses %d→%d, want one new hit and no new miss",
			hits0, hits1, misses0, misses1)
	}
	// And the reverse direction: GET misses, batch hits.
	if status, _ := get(t, base+"/v1/trend?"+url.Values{"dim": {"austin[place]"}}.Encode()); status != http.StatusOK {
		t.Fatal("single trend GET failed")
	}
	hits2, misses2 := s.CacheStats()
	if misses2 != misses1+1 {
		t.Fatalf("trend GET should miss: misses %d→%d", misses1, misses2)
	}
	tq := BatchQuery{Endpoint: "trend", Params: map[string][]string{"dim": {"austin[place]"}}}
	if status, _ := postBatch(t, base, BatchRequest{Queries: []BatchQuery{tq}}); status != http.StatusOK {
		t.Fatal("trend batch failed")
	}
	hits3, misses3 := s.CacheStats()
	if hits3 != hits2+1 || misses3 != misses2 {
		t.Fatalf("batch after single GET: hits %d→%d misses %d→%d, want one new hit and no new miss",
			hits2, hits3, misses2, misses3)
	}
}

// TestBatchValidation pins the envelope-level error paths.
func TestBatchValidation(t *testing.T) {
	s := startServer(t, Config{Source: sliceSource(voctest.ParityDocs(10))})
	waitIngestDone(t, s)
	base := "http://" + s.Addr()

	if status, _ := postBatch(t, base, BatchRequest{}); status != http.StatusBadRequest {
		t.Errorf("empty batch: status = %d, want 400", status)
	}
	over := make([]BatchQuery, MaxBatchQueries+1)
	for i := range over {
		over[i] = BatchQuery{Endpoint: "count", Params: map[string][]string{"dim": {"parity=even"}}}
	}
	if status, _ := postBatch(t, base, BatchRequest{Queries: over}); status != http.StatusBadRequest {
		t.Errorf("oversized batch: status = %d, want 400", status)
	}
	// The body is one JSON object: malformed JSON, or anything but
	// whitespace after the object, is refused whole.
	valid := `{"queries":[{"endpoint":"count","params":{"dim":["parity=even"]}}]}`
	for _, tc := range []struct {
		body string
		want int
	}{
		{"{not json", http.StatusBadRequest},
		{valid + "garbage", http.StatusBadRequest},
		{valid + `{"queries":[]}`, http.StatusBadRequest},
		{valid + "\n", http.StatusOK},
	} {
		resp, err := testClient.Post(base+"/v1/batch", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("body %q: status = %d, want %d", tc.body, resp.StatusCode, tc.want)
		}
	}
	// GET on the batch route is not registered.
	if status, _ := get(t, base+"/v1/batch"); status != http.StatusMethodNotAllowed && status != http.StatusNotFound {
		t.Errorf("GET /v1/batch: status = %d, want 405 or 404", status)
	}

	// A malformed sub-query is rejected inside a 200 envelope with the
	// very body its GET route answers, and its valid sibling still runs.
	bad := []BatchQuery{
		{Endpoint: "count"},
		{Endpoint: "trend", Params: map[string][]string{"dim": {"a[b]", "c[d]"}}},
		{Endpoint: "associate", Params: map[string][]string{"row": {"topic"}, "col": {"parity=even"}, "confidence": {"7"}}},
		{Endpoint: "drilldown", Params: map[string][]string{"row": {"topic"}, "col": {"parity=even"}, "limit": {"-2"}}},
		{Endpoint: "concepts"},
		{Endpoint: "concepts", Params: map[string][]string{"category": {"topic"}, "field": {"outcome"}}},
		{Endpoint: "relfreq", Params: map[string][]string{"category": {"topic"}, "featured": {"parity=even", "parity=odd"}}},
	}
	// The marginals/* names were the shard-side wire once; a public batch
	// does not know them any more than it knows "nope".
	unknown := []string{"nope", "marginals/assoc", "marginals/relfreq", "marginals/concepts", "shard"}
	queries := append([]BatchQuery{}, bad...)
	for _, name := range unknown {
		queries = append(queries, BatchQuery{Endpoint: name, Params: map[string][]string{"row": {"topic"}, "col": {"parity=even"}, "category": {"topic"}}})
	}
	queries = append(queries, BatchQuery{Endpoint: "count", Params: map[string][]string{"dim": {"parity=even"}}})
	status, body := postBatch(t, base, BatchRequest{Queries: queries})
	var env BatchResponse
	if err := json.Unmarshal(body, &env); err != nil || status != http.StatusOK || len(env.Results) != len(queries) {
		t.Fatalf("batch of malformed sub-queries: status %d, err %v, body %s", status, err, body)
	}
	for i, bq := range bad {
		getStatus, want := get(t, base+"/v1/"+bq.Endpoint+"?"+url.Values(bq.Params).Encode())
		got := append(append([]byte{}, env.Results[i].Body...), '\n')
		if getStatus != http.StatusBadRequest || env.Results[i].Status != getStatus || !bytes.Equal(got, want) {
			t.Errorf("%s %v: batch sub %d %s, GET %d %s", bq.Endpoint, bq.Params, env.Results[i].Status, got, getStatus, want)
		}
	}
	for i, name := range unknown {
		want := fmt.Sprintf(`{"error":"unknown batch endpoint %s","status":400}`, strings.ReplaceAll(strconv.Quote(name), `"`, `\"`))
		if sub := env.Results[len(bad)+i]; sub.Status != http.StatusBadRequest || string(sub.Body) != want {
			t.Errorf("unknown endpoint %s: %d %s, want %s", name, sub.Status, sub.Body, want)
		}
	}
	if sub := env.Results[len(queries)-1]; sub.Status != http.StatusOK {
		t.Errorf("valid sibling of malformed sub-queries: %d %s", sub.Status, sub.Body)
	}

	// A parameter that is not valid UTF-8 is refused where every route
	// parses, so the GET, the batch sub-query and the /v1/shard sub-query
	// carry one body. JSON cannot bring the byte to a daemon (a decoder
	// turns it into U+FFFD), so the batch sub-query is run as the handler
	// runs it once decoded; a request frame carries the byte as it is.
	bq := BatchQuery{Endpoint: "drilldown", Params: map[string][]string{"row": {voctest.NotUTF8.Label()}, "col": {"topic"}}}
	const refusal = `{"error":"parameter row: \"agent=A\\xff4\" is not valid UTF-8","status":400}`
	if status, body := get(t, base+"/v1/drilldown?"+url.Values(bq.Params).Encode()); status != http.StatusBadRequest || string(body) != refusal+"\n" {
		t.Errorf("GET with a label that is not UTF-8: %d %s, want 400 %s", status, body, refusal)
	}
	if sub := s.runBatchQuery(s.snap.Load(), bq); sub.Status != http.StatusBadRequest || string(sub.Body) != refusal {
		t.Errorf("batch sub-query with a label that is not UTF-8: %d %s, want 400 %s", sub.Status, sub.Body, refusal)
	}
	if sub := postShard(t, base, bq).Results[0]; sub.Status != http.StatusBadRequest || string(sub.Body) != refusal {
		t.Errorf("shard sub-query with a label that is not UTF-8: %d %s, want 400 %s", sub.Status, sub.Body, refusal)
	}
}

// TestStatszServingCounters pins the /statsz serving section: every
// wrapped route counts its requests and buckets its latency, and the
// bucket totals reconcile with the request count.
func TestStatszServingCounters(t *testing.T) {
	s := startServer(t, Config{Source: sliceSource(voctest.ParityDocs(30))})
	waitIngestDone(t, s)
	base := "http://" + s.Addr()

	for i := 0; i < 3; i++ {
		get(t, base+"/v1/count?dim=parity%3Deven")
	}
	postBatch(t, base, BatchRequest{Queries: []BatchQuery{
		{Endpoint: "count", Params: map[string][]string{"dim": {"parity=odd"}}},
	}})

	var st StatszResponse
	getOK(t, base+"/statsz", &st)
	if len(st.Serving.BucketBoundsUS) != len(SLOBucketBoundsUS) {
		t.Fatalf("serving bucket bounds = %v", st.Serving.BucketBoundsUS)
	}
	count := st.Serving.Endpoints["/v1/count"]
	if count.Requests != 3 {
		t.Errorf("/v1/count requests = %d, want 3", count.Requests)
	}
	if batch := st.Serving.Endpoints["/v1/batch"]; batch.Requests != 1 {
		t.Errorf("/v1/batch requests = %d, want 1", batch.Requests)
	}
	for name, es := range st.Serving.Endpoints {
		var sum uint64
		for _, b := range es.LatencyBucketsUS {
			sum += b
		}
		if sum != es.Requests {
			t.Errorf("%s: bucket sum %d != requests %d", name, sum, es.Requests)
		}
		if len(es.LatencyBucketsUS) != len(SLOBucketBoundsUS)+1 {
			t.Errorf("%s: %d buckets, want %d", name, len(es.LatencyBucketsUS), len(SLOBucketBoundsUS)+1)
		}
	}
}

// TestBatchMatchesSingleQueriesMidIngest pins batch/GET byte-identity
// while ingest is still running: the feed is parked after an exact
// snapshot publish, every batchable endpoint is compared batch-vs-GET
// against that live snapshot, and again after the seal.
func TestBatchMatchesSingleQueriesMidIngest(t *testing.T) {
	const firstBatch, total = 50, 100
	feed := make(chan mining.Document)
	src := func(ctx context.Context, _ func(string) bool, emit func(mining.Document) error) error {
		for d := range feed {
			if err := emit(d); err != nil {
				return err
			}
		}
		return nil
	}
	s := startServer(t, Config{Source: src, SwapEvery: firstBatch})
	base := "http://" + s.Addr()
	docs := voctest.ParityDocs(total)

	compare := func(phase string, wantSealed bool) {
		t.Helper()
		queries := batchTestQueries()
		status, body := postBatch(t, base, BatchRequest{Queries: queries})
		if status != http.StatusOK {
			t.Fatalf("%s: batch status %d, body %s", phase, status, body)
		}
		var resp BatchResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Sealed != wantSealed {
			t.Fatalf("%s: batch envelope sealed=%v, want %v", phase, resp.Sealed, wantSealed)
		}
		for i, bq := range queries {
			sub := resp.Results[i]
			if sub.Status != http.StatusOK {
				t.Fatalf("%s: sub %d (%s): status %d, body %s", phase, i, bq.Endpoint, sub.Status, sub.Body)
			}
			singleStatus, want := get(t, base+singlePath(bq.Endpoint)+"?"+queryString(bq))
			if singleStatus != http.StatusOK {
				t.Fatalf("%s: GET %s: status %d", phase, bq.Endpoint, singleStatus)
			}
			if got := append(append([]byte{}, sub.Body...), '\n'); !bytes.Equal(got, want) {
				t.Fatalf("%s: sub %d (%s) diverges from GET\nbatch: %s\n  get: %s", phase, i, bq.Endpoint, got, want)
			}
		}
	}

	for _, d := range docs[:firstBatch] {
		feed <- d
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Generation() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("snapshot swap did not land")
		}
		time.Sleep(time.Millisecond)
	}
	compare("mid-ingest", false)

	for _, d := range docs[firstBatch:] {
		feed <- d
	}
	close(feed)
	waitIngestDone(t, s)
	compare("sealed", true)
}

package fed

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bivoc/internal/mining"
	"bivoc/internal/server"
	"bivoc/internal/voctest"
)

// TestFedDefaultClientReusesShardConnections pins the default client's
// idle pool, which no other test meets (startCoordinator substitutes a
// client with keep-alives off): after a warm-up wave, 20 waves of 16
// concurrent queries open no more than 16 connections to the shard in
// all. With net/http's default of two idle connections per host, every
// wave closed 14 of the connections it returned and the next dialed them
// again — about 250 dials for the 320 requests.
func TestFedDefaultClientReusesShardConnections(t *testing.T) {
	const concurrency, waves = 16, 20
	var dials atomic.Int64
	shard := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serveFrame(w, uniformFrame(1, shardQueries(t, r), http.StatusOK, server.AppendCountPartial(nil, 0, []int{0})))
	}))
	shard.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			dials.Add(1)
		}
	}
	shard.Start()
	t.Cleanup(shard.Close)

	c, err := NewCoordinator(Config{Shards: []string{shard.URL}})
	if err != nil {
		t.Fatal(err)
	}
	handler := c.Handler()
	wave := func() {
		var wg sync.WaitGroup
		for i := 0; i < concurrency; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/count?dim=parity%3Deven", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("status %d, body %s", rec.Code, rec.Body)
				}
			}()
		}
		wg.Wait()
	}
	wave()
	warm := dials.Load()
	for i := 0; i < waves; i++ {
		wave()
	}
	if got := dials.Load() - warm; got > concurrency {
		t.Errorf("%d requests at concurrency %d opened %d connections after the %d of the warm-up wave, want at most %d",
			waves*concurrency, concurrency, got, warm, concurrency)
	}
}

// shardEndpointRequests sums one endpoint's /statsz serving request
// counter across shard servers.
func shardEndpointRequests(t *testing.T, endpoint string, shards ...*server.Server) uint64 {
	t.Helper()
	var total uint64
	for _, s := range shards {
		status, _, body := get(t, "http://"+s.Addr()+"/statsz")
		if status != http.StatusOK {
			t.Fatalf("shard statsz: status %d", status)
		}
		var sr server.StatszResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		total += sr.Serving.Endpoints[endpoint].Requests
	}
	return total
}

// fedStatsz fetches and decodes the coordinator's /statsz.
func fedStatsz(t *testing.T, fedBase string) StatszResponse {
	t.Helper()
	status, _, body := get(t, fedBase+"/statsz")
	if status != http.StatusOK {
		t.Fatalf("fed statsz: status %d", status)
	}
	var sr StatszResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

// pollDim polls the federated count for dim until it reports want
// documents in total.
func pollDim(t *testing.T, fedBase, dim string, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		status, _, body := get(t, fedBase+"/v1/count?dim="+url.QueryEscape(dim))
		if status == http.StatusOK {
			var m struct{ Total int }
			if err := json.Unmarshal(body, &m); err == nil && m.Total == want {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s never reached %d documents", fedBase, want)
}

// startGatedShards starts k SwapEvery: 1 shards over their partitions
// of docs, each holding back its share past the first cut documents until
// gate closes.
func startGatedShards(t *testing.T, docs []mining.Document, k, cut int, gate <-chan struct{}) []*server.Server {
	t.Helper()
	shards := make([]*server.Server, k)
	for i := range shards {
		s, err := server.New(server.Config{Source: PartitionSource(gatedSource(docs, gate, cut), i, k), SwapEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { shutdownServer(t, s) })
		shards[i] = s
	}
	return shards
}

// TestFedGetFollowsAShardPublish: a federated GET answers from the
// snapshots the shards serve when it is asked, never from an older one.
// Two SwapEvery: 1 shards park at 60 of 120 documents and Q is asked once
// there; both are released and seal, and the very next GET of Q, with no
// query between, must count all 120 documents, sealed, under the
// generation vector the shards now serve. A coordinator that kept Q's
// body from the cut and trusted it for a second after its last full
// scatter fails here whenever the shards seal within that second, as they
// do on a loopback fleet this small: it answers 60 documents, unsealed,
// under the old vector.
func TestFedGetFollowsAShardPublish(t *testing.T) {
	const k, cut, total = 2, 60, 120
	docs := voctest.ParityDocs(total)
	gate := make(chan struct{})
	shards := startGatedShards(t, docs, k, cut, gate)
	coord := startCoordinator(t, Config{Shards: shardAddrs(shards)})
	fedBase := "http://" + coord.Addr()
	q := fedBase + "/v1/count?dim=" + url.QueryEscape("parity=even")
	count := func() (vec string, total int, sealed bool) {
		t.Helper()
		status, hdr, body := get(t, q)
		var m struct {
			Total  int
			Sealed bool
		}
		if err := json.Unmarshal(body, &m); status != http.StatusOK || err != nil {
			t.Fatalf("GET %s: status %d, body %s", q, status, body)
		}
		return hdr.Get(server.GenerationHeader), m.Total, m.Sealed
	}

	pollDim(t, fedBase, "parity=even", cut)
	before, n, sealed := count()
	if n != cut || sealed {
		t.Fatalf("at the cut: total %d, sealed %v, want %d unsealed", n, sealed, cut)
	}

	close(gate)
	waitIngestDone(t, shards...)
	want := make([]string, k)
	for i, s := range shards {
		gen, docs, sealed := s.SnapshotInfo()
		if !sealed || docs != total/k {
			t.Fatalf("shard %d done ingesting at generation %d with %d documents, sealed %v", i, gen, docs, sealed)
		}
		want[i] = strconv.FormatUint(gen, 10)
	}
	after, n, sealed := count()
	if after != strings.Join(want, ",") || n != total || !sealed {
		t.Fatalf("the first GET after both shards sealed answered vector %q, total %d, sealed %v; want %q, %d, true (the vector at the cut was %q)",
			after, n, sealed, strings.Join(want, ","), total, before)
	}
}

// TestFedCacheForgetsARestartedShard pins that an answer names the shard
// processes it was merged from, not only their generations. Two sealed
// shards hold 20 and 60 documents and a count reads vector 1,1; shard 0
// restarts at the same address over 60 other documents and seals at
// generation 1 again. The same count must then answer the fleet's 120
// documents, not the 80 it read before, though the generation vector
// reads 1,1 throughout: the epoch vector changes at shard 0 and nowhere
// else, and a repeated query carries the epochs of the snapshots that
// answered it.
func TestFedCacheForgetsARestartedShard(t *testing.T) {
	docs := voctest.ParityDocs(140)
	first := startSingle(t, docs[:20], server.Config{})
	other := startSingle(t, docs[20:80], server.Config{})
	waitIngestDone(t, first, other)
	coord := startCoordinator(t, Config{Shards: shardAddrs([]*server.Server{first, other})})
	fedBase := "http://" + coord.Addr()
	q := fedBase + "/v1/count?dim=" + url.QueryEscape("parity=even")
	count := func(rawurl string) (vec, epochs []string, total, n int) {
		t.Helper()
		status, hdr, body := get(t, rawurl)
		var m struct {
			Total  int
			Counts []int
		}
		if err := json.Unmarshal(body, &m); status != http.StatusOK || err != nil || len(m.Counts) != 1 {
			t.Fatalf("GET %s: status %d, body %s", rawurl, status, body)
		}
		vec, epochs = strings.Split(hdr.Get(server.GenerationHeader), ","), strings.Split(hdr.Get(server.EpochHeader), ",")
		if len(epochs) != len(vec) || slices.Contains(epochs, "-") || slices.Contains(epochs, "") {
			t.Fatalf("GET %s: epoch vector %q beside generation vector %q, want one epoch per live shard", rawurl, epochs, vec)
		}
		return vec, epochs, m.Total, m.Counts[0]
	}
	oneOne := []string{"1", "1"}

	vec, before, total, even := count(q)
	if !slices.Equal(vec, oneOne) || total != 80 || even != 40 {
		t.Fatalf("before the restart: vector %q, total %d, count %d, want 1,1, 80 and 40", vec, total, even)
	}
	if hit, epochs, _, _ := count(q); !slices.Equal(hit, oneOne) || !slices.Equal(epochs, before) {
		t.Fatalf("a repeated query carries vectors %q and %q, want those of the first, %q and %q", hit, epochs, oneOne, before)
	}
	addr := first.Addr()
	shutdownServer(t, first)
	restarted := startSingle(t, docs[80:], server.Config{Addr: addr})
	waitIngestDone(t, restarted)

	again, after, total, _ := count(fedBase + "/v1/count?dim=" + url.QueryEscape("parity=odd"))
	if !slices.Equal(again, oneOne) || total != 120 {
		t.Fatalf("after the restart another query read vector %q over %d documents, want 1,1 over 120: the restart is not the one this test is about", again, total)
	}
	if after[0] == before[0] || after[1] != before[1] {
		t.Fatalf("epoch vector %q before shard 0 restarted and %q after, want only shard 0's epoch to differ", before, after)
	}
	if vec, epochs, total, even := count(q); !slices.Equal(vec, oneOne) || !slices.Equal(epochs, after) || total != 120 || even != 60 {
		t.Fatalf("after shard 0 restarted over other documents the count reads vectors %q and %q, total %d, count %d; want 1,1, %q, 120 and 60", vec, epochs, total, even, after)
	}
}

// TestFedDegradedNeverCached pins the partial-fleet rule: responses
// merged while a shard is missing are recomputed from the live shards on
// every query.
func TestFedDegradedNeverCached(t *testing.T) {
	const k = 2
	docs := voctest.ParityDocs(80)
	shards := make([]*server.Server, k)
	for i := range shards {
		shards[i] = startShard(t, docs, i, k, server.Config{})
	}
	waitIngestDone(t, shards...)
	coord := startCoordinator(t, Config{Shards: shardAddrs(shards)})
	fedBase := "http://" + coord.Addr()
	q := fedBase + "/v1/count?dim=" + url.QueryEscape("parity=even")

	shutdownServer(t, shards[1])

	for i := 0; i < 2; i++ {
		status, hdr, body := get(t, q)
		if status != http.StatusOK {
			t.Fatalf("degraded query %d: status %d", i, status)
		}
		var fb fedBody
		if err := json.Unmarshal(body, &fb); err != nil {
			t.Fatal(err)
		}
		if !fb.Degraded {
			t.Fatalf("degraded query %d not marked degraded: %s", i, body)
		}
		if vec := hdr.Get(server.GenerationHeader); !strings.Contains(vec, "-") {
			t.Fatalf("degraded query %d vector %q has no gap", i, vec)
		}
		if epochs := strings.Split(hdr.Get(server.EpochHeader), ","); len(epochs) != k || epochs[0] == "-" || epochs[1] != "-" {
			t.Fatalf("degraded query %d epoch vector %q, want shard 0's epoch and '-' at shard 1", i, epochs)
		}
	}
	if got := shardEndpointRequests(t, "/v1/shard", shards[0]); got != 2 {
		t.Fatalf("live shard served %d exchange requests, want 2 (degraded queries must scatter every time)", got)
	}
}

// postFedBatch POSTs a /v1/batch request to the coordinator.
func postFedBatch(t *testing.T, fedBase string, req server.BatchRequest) (int, http.Header, []byte) {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := testClient.Post(fedBase+"/v1/batch", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, buf.Bytes()
}

// fedBatchCase is a batch sub-query and the GET that must answer the
// same body.
type fedBatchCase struct {
	bq  server.BatchQuery
	url string
}

// fedBatchCases pairs every batchable federated endpoint's sub-query
// form with its GET equivalent.
func fedBatchCases() []fedBatchCase {
	mk := func(endpoint string, params url.Values) fedBatchCase {
		return fedBatchCase{server.BatchQuery{Endpoint: endpoint, Params: params}, "/v1/" + endpoint + "?" + params.Encode()}
	}
	return []fedBatchCase{
		mk("count", url.Values{"dim": {"parity=even", "parity=odd", "topic", "austin[place]"}}),
		mk("associate", url.Values{"row": {"billing[topic]", "coverage[topic]"}, "col": {"outcome=reservation", "outcome=unbooked"}}),
		mk("associate", url.Values{"row": {"topic"}, "col": {"parity=odd"}, "confidence": {"0.99"}}),
		mk("relfreq", url.Values{"category": {"topic"}, "featured": {"outcome=reservation"}}),
		mk("drilldown", url.Values{"row": {"austin[place]"}, "col": {"outcome=service"}}),
		mk("trend", url.Values{"dim": {"billing[topic]"}}),
		mk("concepts", url.Values{"category": {"topic"}}),
		mk("concepts", url.Values{"field": {"outcome"}}),
	}
}

// TestFedBatchMatchesSingleFedQueries pins the federated batch against
// the GET path: every sub-result is byte-identical to its single
// federated query, from one scatter, on healthy and degraded fleets —
// also where the batch names a conjunction's terms in the other order
// than the GET does.
func TestFedBatchMatchesSingleFedQueries(t *testing.T) {
	const k = 2
	docs := voctest.ParityDocs(100)
	shards := make([]*server.Server, k)
	for i := range shards {
		shards[i] = startShard(t, docs, i, k, server.Config{})
	}
	waitIngestDone(t, shards...)
	coord := startCoordinator(t, Config{Shards: shardAddrs(shards)})
	fedBase := "http://" + coord.Addr()

	cases := append(fedBatchCases(), fedBatchCase{
		server.BatchQuery{Endpoint: "count", Params: url.Values{"dim": {"billing[topic] ∧ parity=even"}}},
		"/v1/count?dim=" + url.QueryEscape("parity=even ∧ billing[topic]"),
	})
	req := server.BatchRequest{}
	for _, c := range cases {
		req.Queries = append(req.Queries, c.bq)
	}
	// Ride-along failures must not void the healthy sub-queries.
	req.Queries = append(req.Queries,
		server.BatchQuery{Endpoint: "nope", Params: url.Values{}},
		server.BatchQuery{Endpoint: "count", Params: url.Values{"dim": {"[unclosed"}}},
	)

	status, hdr, body := postFedBatch(t, fedBase, req)
	if status != http.StatusOK {
		t.Fatalf("batch status %d, body %s", status, body)
	}
	vec := strings.Split(hdr.Get(server.GenerationHeader), ",")
	if len(vec) != k {
		t.Fatalf("batch generation vector %q, want %d entries", hdr.Get(server.GenerationHeader), k)
	}
	for _, g := range vec {
		if g == "" || g == "-" {
			t.Fatalf("batch vector %q has gaps on a healthy fleet", hdr.Get(server.GenerationHeader))
		}
	}
	var env server.BatchResponse
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if len(env.Results) != len(req.Queries) {
		t.Fatalf("batch returned %d results for %d queries", len(env.Results), len(req.Queries))
	}
	if !env.Sealed || env.Degraded {
		t.Fatalf("healthy sealed batch envelope: sealed=%v degraded=%v", env.Sealed, env.Degraded)
	}
	// One scatter for the whole batch: each shard's exchange endpoint ran
	// once and its public endpoints not at all.
	if got := shardEndpointRequests(t, "/v1/shard", shards...); got != k {
		t.Fatalf("batch hit %d shard exchange endpoints, want %d", got, k)
	}
	if got := shardEndpointRequests(t, "/v1/batch", shards...) + shardEndpointRequests(t, "/v1/count", shards...); got != 0 {
		t.Fatalf("batch hit %d public shard endpoints, want none", got)
	}

	checkSubs := func(env server.BatchResponse, wantDegraded bool) {
		t.Helper()
		for i, c := range cases {
			sub := env.Results[i]
			if sub.Status != http.StatusOK {
				t.Fatalf("sub %d (%s): status %d, body %s", i, c.url, sub.Status, sub.Body)
			}
			gs, _, want := get(t, fedBase+c.url)
			if gs != http.StatusOK {
				t.Fatalf("GET %s: status %d", c.url, gs)
			}
			if got := append(append([]byte{}, sub.Body...), '\n'); !bytes.Equal(got, want) {
				t.Fatalf("sub %d (%s) diverges from single federated GET\nbatch: %s\n  get: %s", i, c.url, got, want)
			}
			var fb fedBody
			if err := json.Unmarshal(sub.Body, &fb); err != nil {
				t.Fatal(err)
			}
			if fb.Degraded != wantDegraded {
				t.Fatalf("sub %d (%s): degraded=%v, want %v", i, c.url, fb.Degraded, wantDegraded)
			}
		}
		for i, wantErr := range map[int]string{len(cases): "unknown batch endpoint", len(cases) + 1: "dim"} {
			sub := env.Results[i]
			if sub.Status != http.StatusBadRequest {
				t.Fatalf("bad sub %d: status %d, want 400 (%s)", i, sub.Status, sub.Body)
			}
			var fb fedBody
			if err := json.Unmarshal(sub.Body, &fb); err != nil {
				t.Fatalf("bad sub %d body not structured: %v", i, err)
			}
			if fb.Status != http.StatusBadRequest || !strings.Contains(fb.Error, wantErr) {
				t.Fatalf("bad sub %d error contract: %+v", i, fb)
			}
		}
	}
	checkSubs(env, false)

	// Kill a shard: the batch keeps answering, degraded exactly like the
	// GET path, and sub-bodies still match the degraded GETs.
	shutdownServer(t, shards[1])
	status, hdr, body = postFedBatch(t, fedBase, req)
	if status != http.StatusOK {
		t.Fatalf("degraded batch status %d, body %s", status, body)
	}
	if vec := strings.Split(hdr.Get(server.GenerationHeader), ","); len(vec) != k || vec[1] != "-" {
		t.Fatalf("degraded batch vector %q, want '-' at shard 1", hdr.Get(server.GenerationHeader))
	}
	env = server.BatchResponse{}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if !env.Degraded || len(env.MissingShards) != 1 || env.MissingShards[0] != 1 {
		t.Fatalf("degraded batch envelope: degraded=%v missing=%v", env.Degraded, env.MissingShards)
	}
	checkSubs(env, true)
}

// TestFedBatchValidation pins the envelope-level error contract.
func TestFedBatchValidation(t *testing.T) {
	docs := voctest.ParityDocs(30)
	shard := startShard(t, docs, 0, 1, server.Config{})
	waitIngestDone(t, shard)
	coord := startCoordinator(t, Config{Shards: shardAddrs([]*server.Server{shard})})
	fedBase := "http://" + coord.Addr()

	status, _, body := postFedBatch(t, fedBase, server.BatchRequest{})
	if status != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, body %s", status, body)
	}

	over := server.BatchRequest{}
	for i := 0; i <= server.MaxBatchQueries; i++ {
		over.Queries = append(over.Queries, server.BatchQuery{Endpoint: "count", Params: url.Values{"dim": {"parity=even"}}})
	}
	status, _, body = postFedBatch(t, fedBase, over)
	if status != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, body %s", status, body)
	}

	resp, err := testClient.Post(fedBase+"/v1/batch", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed batch body: status %d", resp.StatusCode)
	}

	// All-invalid batch: nothing to scatter, still a 200 envelope with
	// per-sub errors under the no-information vector.
	status, hdr, body := postFedBatch(t, fedBase, server.BatchRequest{Queries: []server.BatchQuery{
		{Endpoint: "nope"},
		{Endpoint: "count", Params: url.Values{"dim": {"[unclosed"}}},
	}})
	if status != http.StatusOK {
		t.Fatalf("all-invalid batch: status %d, body %s", status, body)
	}
	if got := hdr.Get(server.GenerationHeader); got != "-" {
		t.Fatalf("all-invalid batch vector %q, want \"-\"", got)
	}
	var env server.BatchResponse
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	for i, sub := range env.Results {
		if sub.Status != http.StatusBadRequest {
			t.Fatalf("all-invalid sub %d: status %d, want 400", i, sub.Status)
		}
	}
}

// TestFedBatchFitsTheShardsWhereItFitsTheCoordinator: a batch the
// coordinator accepts is never too large for its shards. The first batch
// is 200 counts on a label of 4000 '<', 0.8 MB from a client that does
// not escape HTML; marshalled again by encoding/json, every '<' would take
// six bytes, past the shards' body limit, and every shard would be
// "unavailable". Its request frame, like the second batch's of strings
// JSON escapes, is no longer than the JSON the client sent. The third is
// the first with every '<' a byte that is not UTF-8, which encoding/json
// decodes to U+FFFD, three bytes: its frame is the one that outgrows the
// client's JSON, and the shards read it all the same. Each answers what
// the single daemon's /v1/batch answers.
func TestFedBatchFitsTheShardsWhereItFitsTheCoordinator(t *testing.T) {
	shard := startShard(t, voctest.ParityDocs(30), 0, 1, server.Config{})
	waitIngestDone(t, shard)
	monoBase := "http://" + shard.Addr()
	fedBase := "http://" + startCoordinator(t, Config{Shards: []string{monoBase}}).Addr()
	count := func(label string) server.BatchQuery {
		return server.BatchQuery{Endpoint: "count", Params: url.Values{"dim": {label}}}
	}
	batch := func(queries []server.BatchQuery) []byte {
		var payload bytes.Buffer
		enc := json.NewEncoder(&payload)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(server.BatchRequest{Queries: queries}); err != nil {
			t.Fatal(err)
		}
		return payload.Bytes()
	}
	angles := make([]server.BatchQuery, 200)
	for i := range angles {
		angles[i] = count("parity=" + strings.Repeat("<", 4000))
	}
	var escaped []server.BatchQuery
	for _, s := range []string{`a "quote" and a \backslash`, "line separator", "tab\tand\x01control", "&<>", "ünïcode"} {
		escaped = append(escaped, count("parity="+s),
			server.BatchQuery{Endpoint: "drilldown", Params: url.Values{"row": {"topic"}, "col": {"outcome=" + s}, "limit": {"3"}}})
	}
	for _, c := range []struct {
		name    string
		payload []byte
		growth  int // the longest the frame may be, in lengths of the payload
	}{
		{"angle brackets", batch(angles), 1},
		{"escaped strings", batch(escaped), 1},
		{"bytes not UTF-8", bytes.ReplaceAll(batch(angles), []byte("<"), []byte{0xff}), 3},
	} {
		name, payload := c.name, c.payload
		var req server.BatchRequest
		if err := json.Unmarshal(payload, &req); err != nil {
			t.Fatal(err)
		}
		if frame := server.AppendShardRequest(nil, req.Queries); len(frame) > c.growth*len(payload) || len(payload) > server.MaxBatchBytes {
			t.Errorf("%s: a request frame of %d bytes for %d bytes of JSON (limit %d)", name, len(frame), len(payload), server.MaxBatchBytes)
		}
		post := func(base string) (int, []byte) {
			resp, err := testClient.Post(base+"/v1/batch", "application/json", bytes.NewReader(payload))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return resp.StatusCode, body
		}
		monoStatus, want := post(monoBase)
		if status, got := post(fedBase); status != http.StatusOK || monoStatus != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("%s: coordinator %d %.300s\nsingle daemon %d %.300s", name, status, got, monoStatus, want)
		}
	}
}

// TestFedStatszServingSections pins the SLO sections of the federated
// /statsz: the coordinator's own per-endpoint counters and the
// element-wise sum of the shards', with bucket totals matching request
// totals — and its scatter section, which counts the exchange nothing
// else shows: requests sent, reply bytes read, replies turned down.
func TestFedStatszServingSections(t *testing.T) {
	const k = 2
	docs := voctest.ParityDocs(60)
	shards := make([]*server.Server, k)
	for i := range shards {
		shards[i] = startShard(t, docs, i, k, server.Config{})
	}
	waitIngestDone(t, shards...)
	coord := startCoordinator(t, Config{Shards: shardAddrs(shards)})
	fedBase := "http://" + coord.Addr()

	for i := 0; i < 3; i++ {
		get(t, fedBase+"/v1/count?dim="+url.QueryEscape("parity=even"))
	}
	get(t, fedBase+"/v1/trend?dim="+url.QueryEscape("billing[topic]"))
	postFedBatch(t, fedBase, server.BatchRequest{Queries: []server.BatchQuery{
		{Endpoint: "count", Params: url.Values{"dim": {"parity=odd"}}},
	}})

	sr := fedStatsz(t, fedBase)
	if len(sr.Serving.BucketBoundsUS) == 0 {
		t.Fatal("serving section missing bucket bounds")
	}
	for path, want := range map[string]uint64{"/v1/count": 3, "/v1/trend": 1, "/v1/batch": 1} {
		es, ok := sr.Serving.Endpoints[path]
		if !ok || es.Requests != want {
			t.Fatalf("coordinator serving[%s] = %+v, want %d requests", path, es, want)
		}
		var sum uint64
		for _, b := range es.LatencyBucketsUS {
			sum += b
		}
		if sum != es.Requests {
			t.Fatalf("serving[%s]: bucket sum %d != requests %d", path, sum, es.Requests)
		}
	}
	// The shards saw five scatters of k requests each — the three counts,
	// the trend and the batch — all on /v1/shard, the one route the
	// coordinator asks on the query path: a federated GET does not count
	// under the shards' /v1/count.
	if es := sr.ShardServing.Endpoints["/v1/shard"]; es.Requests != 5*k {
		t.Fatalf("shard_serving[/v1/shard] = %d requests, want %d", es.Requests, 5*k)
	}
	for _, path := range []string{"/v1/count", "/v1/trend", "/v1/batch"} {
		if es := sr.ShardServing.Endpoints[path]; es.Requests != 0 {
			t.Fatalf("shard_serving[%s] = %d requests, want none", path, es.Requests)
		}
	}
	if sr.Scatter.Requests != 5*k || sr.Scatter.Malformed != 0 {
		t.Fatalf("scatter section %+v after five scatters of a healthy fleet", sr.Scatter)
	}

	// One GET and one batch over a fleet with a third shard that answers
	// 200 with something that is no frame: each sends three requests,
	// reads what the shards send for it — asked of them directly here —
	// and turns one reply down.
	const garbage = "not a frame\n"
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", server.FrameContentType)
		io.WriteString(w, garbage)
	}))
	t.Cleanup(broken.Close)
	fedBase = "http://" + startCoordinator(t, Config{Shards: append(shardAddrs(shards), broken.URL)}).Addr()
	frameBytes := func(queries ...server.BatchQuery) (n uint64) {
		payload := server.AppendShardRequest(nil, queries)
		for _, s := range shards {
			resp, err := testClient.Post("http://"+s.Addr()+"/v1/shard", server.FrameContentType, bytes.NewReader(payload))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("shard /v1/shard: %d %v", resp.StatusCode, err)
			}
			n += uint64(len(body))
		}
		return n + uint64(len(garbage))
	}
	getQ := server.BatchQuery{Endpoint: "relfreq", Params: url.Values{"category": {"topic"}, "featured": {"parity=even"}}}
	batchQs := []server.BatchQuery{
		{Endpoint: "count", Params: url.Values{"dim": {"parity=odd"}}},
		{Endpoint: "drilldown", Params: url.Values{"row": {"topic"}, "col": {"parity=even"}}},
	}
	var want ScatterStatsJSON
	for _, step := range []struct {
		ask        func() (int, http.Header, []byte)
		wantStatus int // the batch is a 200 envelope of 500s
		bytes      uint64
	}{
		{func() (int, http.Header, []byte) {
			return get(t, fedBase+"/v1/"+getQ.Endpoint+"?"+url.Values(getQ.Params).Encode())
		}, http.StatusInternalServerError, frameBytes(getQ)},
		{func() (int, http.Header, []byte) {
			return postFedBatch(t, fedBase, server.BatchRequest{Queries: batchQs})
		}, http.StatusOK, frameBytes(batchQs...)},
	} {
		if status, _, body := step.ask(); status != step.wantStatus || !bytes.Contains(body, []byte(`"shard 2: `)) {
			t.Fatalf("with a shard that sends no frame: %d %s", status, body)
		}
		want.Requests += k + 1
		want.ReplyBytes += step.bytes
		want.Malformed++
		if got := fedStatsz(t, fedBase).Scatter; got != want {
			t.Fatalf("scatter section %+v, want %+v", got, want)
		}
	}
}

// TestFedBatchAndCacheMidIngest pins batch/GET byte-identity on a live
// fleet: with every shard parked at the same gated cut, the federated
// batch and two GETs of each sub-query — the second answered from the
// shards' snapshot caches — all serve identical bytes; then again after
// the release and seal.
func TestFedBatchAndCacheMidIngest(t *testing.T) {
	const k, cut, total = 2, 60, 120
	docs := voctest.ParityDocs(total)
	gate := make(chan struct{})
	shards := startGatedShards(t, docs, k, cut, gate)
	coord := startCoordinator(t, Config{Shards: shardAddrs(shards)})
	fedBase := "http://" + coord.Addr()

	compare := func(phase string) {
		t.Helper()
		cases := fedBatchCases()
		req := server.BatchRequest{}
		for _, c := range cases {
			req.Queries = append(req.Queries, c.bq)
		}
		status, _, body := postFedBatch(t, fedBase, req)
		if status != http.StatusOK {
			t.Fatalf("%s: batch status %d, body %s", phase, status, body)
		}
		var env server.BatchResponse
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatal(err)
		}
		for i, c := range cases {
			sub := env.Results[i]
			if sub.Status != http.StatusOK {
				t.Fatalf("%s: sub %d (%s): status %d, body %s", phase, i, c.url, sub.Status, sub.Body)
			}
			want := append(append([]byte{}, sub.Body...), '\n')
			// Every GET scatters; the shards answer the second from
			// their caches. All three answers must carry the same bytes.
			for pass := 0; pass < 2; pass++ {
				gs, _, got := get(t, fedBase+c.url)
				if gs != http.StatusOK {
					t.Fatalf("%s: GET %s pass %d: status %d", phase, c.url, pass, gs)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: GET %s pass %d diverges from batch sub\n  get: %s\nbatch: %s", phase, c.url, pass, got, want)
				}
			}
		}
	}

	pollDim(t, fedBase, "parity=even", cut)
	compare("mid-ingest")

	close(gate)
	waitIngestDone(t, shards...)
	pollDim(t, fedBase, "parity=odd", total)
	compare("sealed")
}

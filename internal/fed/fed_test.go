package fed

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"
	"time"

	"bivoc/internal/annotate"
	"bivoc/internal/mining"
	"bivoc/internal/server"
	"bivoc/internal/store"
	"bivoc/internal/voctest"
	"bivoc/internal/wire"
)

// The federation oracle suite: a coordinator over hash-partitioned
// shards must answer every /v1 endpoint byte-identically to a
// single-node server over the union corpus, and both with the bytes the
// naive oracle renders in the test process — at shard counts {1,2,4,8},
// sealed and mid-ingest — and must degrade (not die) under partial shard
// failure.

func sliceSource(docs []mining.Document) server.DocSource {
	return func(ctx context.Context, _ func(string) bool, emit func(mining.Document) error) error {
		for _, d := range docs {
			if err := emit(d); err != nil {
				return err
			}
		}
		return nil
	}
}

// testClient disables keep-alives so no pooled connection outlives its
// request and shard restarts/shutdowns stay prompt and deterministic.
var testClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

func get(t *testing.T, rawurl string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := testClient.Get(rawurl)
	if err != nil {
		t.Fatalf("GET %s: %v", rawurl, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", rawurl, err)
	}
	return resp.StatusCode, resp.Header, body
}

// startShard starts one shard server over its partition of docs.
func startShard(t *testing.T, docs []mining.Document, shard, shards int, cfg server.Config) *server.Server {
	t.Helper()
	cfg.Source = PartitionSource(sliceSource(docs), shard, shards)
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdownServer(t, s) })
	return s
}

// shutdownServer shuts a server down, tolerating double shutdowns (the
// failure tests stop shards mid-test before the cleanup runs).
func shutdownServer(t *testing.T, s *server.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil && !strings.Contains(err.Error(), "Shutdown") {
		t.Logf("shutdown: %v", err)
	}
}

func startSingle(t *testing.T, docs []mining.Document, cfg server.Config) *server.Server {
	t.Helper()
	cfg.Source = sliceSource(docs)
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdownServer(t, s) })
	return s
}

func startCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	if cfg.Client == nil {
		cfg.Client = testClient
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := c.Shutdown(ctx); err != nil {
			t.Errorf("coordinator shutdown: %v", err)
		}
	})
	return c
}

func waitIngestDone(t *testing.T, servers ...*server.Server) {
	t.Helper()
	for _, s := range servers {
		select {
		case <-s.IngestDone():
		case <-time.After(10 * time.Second):
			t.Fatal("ingest did not finish in time")
		}
	}
}

func shardAddrs(servers []*server.Server) []string {
	out := make([]string, len(servers))
	for i, s := range servers {
		out[i] = "http://" + s.Addr()
	}
	return out
}

// TestShardOf pins the placement function: deterministic, in range,
// collapsing for ≤1 shard, and spreading the test corpus over every
// shard at the counts the equivalence suite uses.
func TestShardOf(t *testing.T) {
	for _, d := range voctest.ParityDocs(50) {
		if got := ShardOf(d.ID, 1); got != 0 {
			t.Fatalf("ShardOf(%q, 1) = %d", d.ID, got)
		}
		if got := ShardOf(d.ID, 0); got != 0 {
			t.Fatalf("ShardOf(%q, 0) = %d", d.ID, got)
		}
	}
	for _, k := range []int{2, 4, 8} {
		seen := make([]int, k)
		for _, d := range voctest.ParityDocs(200) {
			s := ShardOf(d.ID, k)
			if s < 0 || s >= k {
				t.Fatalf("ShardOf(%q, %d) = %d out of range", d.ID, k, s)
			}
			if s != ShardOf(d.ID, k) {
				t.Fatalf("ShardOf not deterministic")
			}
			seen[s]++
		}
		for i, n := range seen {
			if n == 0 {
				t.Fatalf("shard %d of %d received no documents from 200", i, k)
			}
		}
	}
}

// checkFedBodies requires every query's federated body to be
// byte-identical to want's, and the header to carry a full numeric
// generation vector.
func checkFedBodies(t *testing.T, want map[string][]byte, fedBase string, shards int) {
	t.Helper()
	for q, want := range want {
		gotStatus, hdr, got := get(t, fedBase+q)
		if gotStatus != http.StatusOK {
			t.Fatalf("%s: fed status %d: %s", q, gotStatus, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: fed body diverges\n fed: %s\nwant: %s", q, got, want)
		}
		if strings.HasPrefix(q, "/v1/drilldown?") {
			var dd server.DrillDownResponse
			if err := json.Unmarshal(got, &dd); err != nil {
				t.Fatal(err)
			}
			if strings.Contains(q, "row=topic") && strings.Contains(q, "limit=100000") && (dd.Truncated || len(dd.Docs) != dd.Count || dd.Count < 2*shards) {
				t.Fatalf("%s: count=%d docs=%d truncated=%v, want the whole of a cell spanning every shard", q, dd.Count, len(dd.Docs), dd.Truncated)
			}
			for i := 1; i < len(dd.Docs); i++ {
				if dd.Docs[i-1].ID >= dd.Docs[i].ID {
					t.Fatalf("%s: doc IDs not ascending at %d: %q then %q", q, i, dd.Docs[i-1].ID, dd.Docs[i].ID)
				}
			}
		}
		vec := strings.Split(hdr.Get(server.GenerationHeader), ",")
		if len(vec) != shards {
			t.Fatalf("%s: generation vector %q has %d entries, want %d", q, hdr.Get(server.GenerationHeader), len(vec), shards)
		}
		for _, gen := range vec {
			if gen == "" || gen == "-" {
				t.Fatalf("%s: generation vector %q has missing entries on a healthy fleet", q, hdr.Get(server.GenerationHeader))
			}
		}
	}
}

// fetchBodies GETs every query from one daemon, requiring a 200.
func fetchBodies(t *testing.T, base string, queries []string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, len(queries))
	for _, q := range queries {
		status, _, body := get(t, base+q)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", q, status, body)
		}
		out[q] = body
	}
	return out
}

// oracleBodies renders what a healthy sealed fleet whose lowest shard
// generation is gen must answer over docs: the endpoint table's Plan.Local
// over the naive view of one monolithic index, marshalled in the test
// process — it shares nothing with the daemons but the documents.
func oracleBodies(t *testing.T, docs []mining.Document, gen uint64, queries []string) map[string][]byte {
	t.Helper()
	naive := voctest.Index(docs).Naive()
	return voctest.Bodies(t, queries, func(endpoint string, params url.Values) (any, error) {
		plan, err := server.NewEndpoints(0).Plan(endpoint, params)
		if err != nil {
			return nil, err
		}
		return plan.Local(naive, server.Head{Generation: gen, Sealed: true}), nil
	})
}

// TestFedMatchesSingleNodeSealed is the tentpole oracle: shard counts
// {1, 2, 4, 8} over a sealed corpus. With naive-false every endpoint is
// byte-identical to a single node over the parity corpus; with naive-true
// the single node is replaced by the oracle itself — the fleet ingests a
// random world and must answer every URL of its battery with the bytes
// the naive view of one monolithic index renders.
func TestFedMatchesSingleNodeSealed(t *testing.T) {
	t.Parallel()
	world := voctest.NewWorld(20214, 150)
	for _, k := range []int{1, 2, 4, 8} {
		for _, naive := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards-%d-naive-%v", k, naive), func(t *testing.T) {
				t.Parallel()
				docs := voctest.ParityDocs(150)
				if naive {
					docs = world.Docs
				}
				shards := make([]*server.Server, k)
				for i := range shards {
					shards[i] = startShard(t, docs, i, k, server.Config{})
				}
				waitIngestDone(t, shards...)
				coord := startCoordinator(t, Config{Shards: shardAddrs(shards)})
				if naive {
					gen := shards[0].Generation()
					for _, s := range shards {
						gen = min(gen, s.Generation())
					}
					checkFedBodies(t, oracleBodies(t, docs, gen, world.URLs()), "http://"+coord.Addr(), k)
					return
				}
				single := startSingle(t, docs, server.Config{})
				waitIngestDone(t, single)
				checkFedBodies(t, fetchBodies(t, "http://"+single.Addr(), voctest.ParityURLs()), "http://"+coord.Addr(), k)
			})
		}
	}
}

// normalizeGen strips only the generation field: mid-ingest, shard
// generations advance on their own cadences, but everything else —
// counts, floats, ordering, sealed — must match the single node at the
// same corpus prefix.
func normalizeGen(t *testing.T, body []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("unmarshal %s: %v", body, err)
	}
	delete(m, "generation")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// gatedSource emits docs[:gateAt], blocks until gate closes, then emits
// the rest — a deterministic mid-ingest cut at the same document for
// every server regardless of partitioning.
func gatedSource(docs []mining.Document, gate <-chan struct{}, gateAt int) server.DocSource {
	return func(ctx context.Context, _ func(string) bool, emit func(mining.Document) error) error {
		for i, d := range docs {
			if i == gateAt {
				select {
				case <-gate:
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			if err := emit(d); err != nil {
				return err
			}
		}
		return nil
	}
}

// pollTotal waits until /v1/count reports want documents.
func pollTotal(t *testing.T, base string, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		status, _, body := get(t, base+"/v1/count?dim="+url.QueryEscape("parity=even"))
		if status == http.StatusOK {
			var m struct{ Total int }
			if err := json.Unmarshal(body, &m); err == nil && m.Total == want {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s never reached %d documents", base, want)
}

// TestFedMidIngestMatchesSingleNode pins byte-identity (modulo the
// generation counter) while ingest is still running: the fleet and the
// single node are cut at the same document, queried, then released and
// compared again sealed.
func TestFedMidIngestMatchesSingleNode(t *testing.T) {
	const k, cut, total = 4, 60, 100
	docs := voctest.ParityDocs(total)
	gate := make(chan struct{})
	cfg := server.Config{SwapEvery: 1}

	singleCfg := cfg
	singleCfg.Source = gatedSource(docs, gate, cut)
	single, err := server.New(singleCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := single.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdownServer(t, single) })

	shards := make([]*server.Server, k)
	for i := range shards {
		shardCfg := cfg
		shardCfg.Source = PartitionSource(gatedSource(docs, gate, cut), i, k)
		s, err := server.New(shardCfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { shutdownServer(t, s) })
		shards[i] = s
	}
	coord := startCoordinator(t, Config{Shards: shardAddrs(shards)})
	singleBase, fedBase := "http://"+single.Addr(), "http://"+coord.Addr()

	// Mid-ingest: both sides hold exactly the first cut documents.
	pollTotal(t, singleBase, cut)
	pollTotal(t, fedBase, cut)
	for _, q := range voctest.ParityURLs() {
		_, _, want := get(t, singleBase+q)
		_, _, got := get(t, fedBase+q)
		if w, g := normalizeGen(t, want), normalizeGen(t, got); !bytes.Equal(g, w) {
			t.Fatalf("mid-ingest %s: fed diverges from single node\n fed: %s\nsingle: %s", q, g, w)
		}
	}

	// Release the rest and compare the sealed corpus.
	close(gate)
	waitIngestDone(t, append([]*server.Server{single}, shards...)...)
	pollTotal(t, singleBase, total)
	pollTotal(t, fedBase, total)
	for _, q := range voctest.ParityURLs() {
		_, _, want := get(t, singleBase+q)
		_, _, got := get(t, fedBase+q)
		if w, g := normalizeGen(t, want), normalizeGen(t, got); !bytes.Equal(g, w) {
			t.Fatalf("sealed %s: fed diverges from single node\n fed: %s\nsingle: %s", q, g, w)
		}
		var m struct{ Sealed bool }
		if err := json.Unmarshal(got, &m); err != nil || !m.Sealed {
			t.Fatalf("sealed %s: fed response not sealed (%s)", q, got)
		}
	}
}

// fedBody decodes the degraded-contract fields of a federated response.
type fedBody struct {
	Total         int    `json:"total"`
	Degraded      bool   `json:"degraded"`
	MissingShards []int  `json:"missing_shards"`
	Status        int    `json:"status"`
	Error         string `json:"error"`
}

// TestFedPartialFailureAndRecovery pins degraded-not-dead: one shard
// down leaves queries answered under the documented contract, and a
// restarted shard rejoins without any coordinator restart.
func TestFedPartialFailureAndRecovery(t *testing.T) {
	const k = 3
	docs := voctest.ParityDocs(90)
	shards := make([]*server.Server, k)
	for i := range shards {
		shards[i] = startShard(t, docs, i, k, server.Config{})
	}
	waitIngestDone(t, shards...)
	coord := startCoordinator(t, Config{Shards: shardAddrs(shards)})
	fedBase := "http://" + coord.Addr()
	countQ := fedBase + "/v1/count?dim=" + url.QueryEscape("parity=even")

	// Healthy baseline.
	status, _, healthyBody := get(t, countQ)
	if status != http.StatusOK {
		t.Fatalf("healthy count: status %d", status)
	}
	var healthy fedBody
	if err := json.Unmarshal(healthyBody, &healthy); err != nil {
		t.Fatal(err)
	}
	if healthy.Degraded || healthy.Total != len(docs) {
		t.Fatalf("healthy baseline degraded=%v total=%d", healthy.Degraded, healthy.Total)
	}

	// Kill shard 1. Its documents drop out; everything else still answers.
	downAddr := shards[1].Addr()
	shutdownServer(t, shards[1])
	_, docs1, _ := shards[1].SnapshotInfo()

	deadline := time.Now().Add(5 * time.Second)
	var fb fedBody
	var hdr http.Header
	for {
		var body []byte
		status, hdr, body = get(t, countQ)
		if err := json.Unmarshal(body, &fb); err != nil {
			t.Fatal(err)
		}
		if fb.Degraded || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if status != http.StatusOK {
		t.Fatalf("degraded count: status %d, want 200", status)
	}
	if !fb.Degraded || len(fb.MissingShards) != 1 || fb.MissingShards[0] != 1 {
		t.Fatalf("degraded contract violated: degraded=%v missing=%v", fb.Degraded, fb.MissingShards)
	}
	if want := len(docs) - docs1; fb.Total != want {
		t.Fatalf("degraded total = %d, want %d (live shards only)", fb.Total, want)
	}
	vec := strings.Split(hdr.Get(server.GenerationHeader), ",")
	if len(vec) != k || vec[1] != "-" {
		t.Fatalf("degraded generation vector = %q, want %d entries with '-' at shard 1", hdr.Get(server.GenerationHeader), k)
	}

	// Every endpoint family keeps answering while degraded.
	for _, q := range voctest.ParityURLs() {
		status, _, body := get(t, fedBase+q)
		if status != http.StatusOK {
			t.Fatalf("degraded %s: status %d, body %s", q, status, body)
		}
		var b fedBody
		if err := json.Unmarshal(body, &b); err != nil {
			t.Fatal(err)
		}
		if !b.Degraded {
			t.Fatalf("degraded %s: response not marked degraded", q)
		}
	}

	// Aggregated health reflects the loss, coordinator still 200.
	status, _, healthBody := get(t, fedBase+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz while degraded: status %d", status)
	}
	var hr HealthResponse
	if err := json.Unmarshal(healthBody, &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "degraded" || hr.Shards[1].Status != "unreachable" {
		t.Fatalf("healthz = %s / shard1 %s, want degraded/unreachable", hr.Status, hr.Shards[1].Status)
	}

	// Recovery: restart the shard on the same address; the stateless
	// coordinator picks it back up on its next scatter, no restart.
	restartCfg := server.Config{Addr: downAddr}
	restarted := startShard(t, docs, 1, k, restartCfg)
	waitIngestDone(t, restarted)

	deadline = time.Now().Add(5 * time.Second)
	for {
		_, _, body := get(t, countQ)
		fb = fedBody{} // omitted fields must not inherit the degraded phase
		if err := json.Unmarshal(body, &fb); err != nil {
			t.Fatal(err)
		}
		if !fb.Degraded || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if fb.Degraded || fb.Total != len(docs) {
		t.Fatalf("after recovery: degraded=%v total=%d, want healthy %d", fb.Degraded, fb.Total, len(docs))
	}
	// Back to the healthy baseline bytes.
	_, _, body := get(t, countQ)
	if !bytes.Equal(body, healthyBody) {
		t.Fatalf("post-recovery body diverges from pre-failure baseline:\n got %s\nwant %s", body, healthyBody)
	}
}

// TestFedSlowShardTimesOut pins the per-shard timeout: a shard that
// hangs past ShardTimeout is dropped from the merge as missing, and the
// query still answers from the fast shards.
func TestFedSlowShardTimesOut(t *testing.T) {
	const k = 3
	docs := voctest.ParityDocs(60)
	fast := make([]*server.Server, 0, k-1)
	for i := 0; i < k-1; i++ {
		fast = append(fast, startShard(t, docs, i, k, server.Config{}))
	}
	waitIngestDone(t, fast...)

	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		shardQueries(t, r) // a server sees its client leave only after reading the request
		select {
		case <-time.After(2 * time.Second):
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(slow.Close)

	addrs := append(shardAddrs(fast), slow.URL)
	coord := startCoordinator(t, Config{Shards: addrs, ShardTimeout: 100 * time.Millisecond})
	fedBase := "http://" + coord.Addr()

	start := time.Now()
	status, _, body := get(t, fedBase+"/v1/count?dim="+url.QueryEscape("parity=even"))
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("slow shard stalled the merge for %v", elapsed)
	}
	if status != http.StatusOK {
		t.Fatalf("status %d with a slow shard, want 200", status)
	}
	var fb fedBody
	if err := json.Unmarshal(body, &fb); err != nil {
		t.Fatal(err)
	}
	if !fb.Degraded || len(fb.MissingShards) != 1 || fb.MissingShards[0] != k-1 {
		t.Fatalf("slow shard not reported missing: degraded=%v missing=%v", fb.Degraded, fb.MissingShards)
	}
}

// TestFedAllShardsDown pins the 503 contract: zero live shards is the
// only condition that fails a query, and it fails structured.
func TestFedAllShardsDown(t *testing.T) {
	// Bind-then-close two listeners to get addresses that refuse.
	dead := make([]string, 2)
	for i := range dead {
		l := httptest.NewServer(http.NotFoundHandler())
		dead[i] = l.URL
		l.Close()
	}
	coord := startCoordinator(t, Config{Shards: dead, ShardTimeout: 200 * time.Millisecond})
	fedBase := "http://" + coord.Addr()

	for _, q := range voctest.ParityURLs() {
		status, hdr, body := get(t, fedBase+q)
		if status != http.StatusServiceUnavailable {
			t.Fatalf("%s: status %d, want 503 (body %s)", q, status, body)
		}
		var fb fedBody
		if err := json.Unmarshal(body, &fb); err != nil {
			t.Fatalf("%s: 503 body is not structured JSON: %v (%s)", q, err, body)
		}
		if fb.Status != http.StatusServiceUnavailable || !fb.Degraded || len(fb.MissingShards) != 2 || fb.Error == "" {
			t.Fatalf("%s: 503 contract violated: %+v", q, fb)
		}
		if got := hdr.Get(server.GenerationHeader); got != "-,-" {
			t.Fatalf("%s: generation vector %q, want \"-,-\"", q, got)
		}
	}

	// Introspection stays 200/degraded even with everything down.
	status, _, body := get(t, fedBase+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz: status %d, want 200", status)
	}
	var hr HealthResponse
	if err := json.Unmarshal(body, &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "degraded" || !hr.Degraded || len(hr.MissingShards) != 2 {
		t.Fatalf("healthz all-down contract violated: %+v", hr)
	}
}

// TestFedLocalErrorsStructured pins rejections as one contract: a
// malformed query gets the same {"error", "status"} 400 body, byte for
// byte, from a single daemon's GET, its /v1/batch sub-result, the
// coordinator's GET and the coordinator's /v1/batch sub-result — and the
// coordinator rejects it locally, under the blank generation vector
// (nothing was scattered).
func TestFedLocalErrorsStructured(t *testing.T) {
	docs := voctest.ParityDocs(30)
	shard := startShard(t, docs, 0, 1, server.Config{})
	waitIngestDone(t, shard)
	coord := startCoordinator(t, Config{Shards: shardAddrs([]*server.Server{shard})})
	monoBase, fedBase := "http://"+shard.Addr(), "http://"+coord.Addr()

	cases := []server.BatchQuery{
		{Endpoint: "count"}, // missing dim
		{Endpoint: "trend", Params: url.Values{"dim": {"a[b]", "c[d]"}}},                                           // two dims
		{Endpoint: "associate", Params: url.Values{"row": {"topic"}, "col": {"parity=even"}, "confidence": {"7"}}}, // bad confidence
		{Endpoint: "drilldown", Params: url.Values{"row": {"topic"}, "col": {"parity=even"}, "limit": {"-2"}}},     // negative limit
		{Endpoint: "concepts"}, // neither category nor field
		{Endpoint: "concepts", Params: url.Values{"category": {"topic"}, "field": {"outcome"}}},                     // both
		{Endpoint: "relfreq", Params: url.Values{"category": {"topic"}, "featured": {"parity=even", "parity=odd"}}}, // two featured
		{Endpoint: "relfreq", Params: url.Values{"featured": {"parity=even"}}},                                      // missing category
		{Endpoint: "count", Params: url.Values{"dim": {"[unclosed"}}},                                               // unparsable dim
	}
	batch := server.BatchRequest{Queries: append([]server.BatchQuery{}, cases...)}
	batch.Queries = append(batch.Queries, server.BatchQuery{Endpoint: "nope"}, server.BatchQuery{Endpoint: "marginals/assoc"})
	subBodies := func(base string) []server.BatchResult {
		t.Helper()
		status, _, body := postFedBatch(t, base, batch)
		var env server.BatchResponse
		if err := json.Unmarshal(body, &env); err != nil || status != http.StatusOK || len(env.Results) != len(batch.Queries) {
			t.Fatalf("%s/v1/batch: status %d, err %v, body %s", base, status, err, body)
		}
		return env.Results
	}
	monoSubs, fedSubs := subBodies(monoBase), subBodies(fedBase)

	for i, c := range cases {
		q := "/v1/" + c.Endpoint + "?" + url.Values(c.Params).Encode()
		monoStatus, _, want := get(t, monoBase+q)
		status, hdr, body := get(t, fedBase+q)
		if status != http.StatusBadRequest || monoStatus != http.StatusBadRequest {
			t.Fatalf("%s: status fed %d mono %d, want 400", q, status, monoStatus)
		}
		var fb fedBody
		if err := json.Unmarshal(body, &fb); err != nil {
			t.Fatalf("%s: 400 body not structured: %v", q, err)
		}
		if fb.Status != http.StatusBadRequest || fb.Error == "" {
			t.Fatalf("%s: error contract violated: %+v", q, fb)
		}
		if got := hdr.Get(server.GenerationHeader); got != "-" {
			t.Fatalf("%s: generation vector %q, want \"-\"", q, got)
		}
		for name, got := range map[string][]byte{
			"fed GET":    body,
			"mono batch": append(append([]byte{}, monoSubs[i].Body...), '\n'),
			"fed batch":  append(append([]byte{}, fedSubs[i].Body...), '\n'),
		} {
			if !bytes.Equal(got, want) {
				t.Errorf("%s: %s body diverges from mono GET\n got: %s\nwant: %s", q, name, got, want)
			}
		}
		if monoSubs[i].Status != http.StatusBadRequest || fedSubs[i].Status != http.StatusBadRequest {
			t.Errorf("%s: batch sub status mono %d fed %d, want 400", q, monoSubs[i].Status, fedSubs[i].Status)
		}
	}
	// A parameter that is not valid UTF-8 is refused by name, with one body,
	// by both daemons, which could match it but not echo it. GET only: a
	// JSON batch cannot carry the byte to either.
	for _, c := range []struct {
		q    server.BatchQuery
		want string
	}{
		{server.BatchQuery{Endpoint: "count", Params: url.Values{"dim": {"parity=even", voctest.NotUTF8.Label()}}}, `parameter dim: \"agent=A\\xff4\"`},
		{server.BatchQuery{Endpoint: "drilldown", Params: url.Values{"row": {"topic"}, "col": {"bad\xc0[topic]"}}}, `parameter col: \"bad\\xc0[topic]\"`},
		{server.BatchQuery{Endpoint: "associate", Params: url.Values{"row": {"\xff"}, "col": {"topic"}}}, `parameter row: \"\\xff\"`},
		{server.BatchQuery{Endpoint: "relfreq", Params: url.Values{"category": {"to\xffpic"}, "featured": {"parity=even"}}}, `parameter category: \"to\\xffpic\"`},
		{server.BatchQuery{Endpoint: "relfreq", Params: url.Values{"category": {"topic"}, "featured": {"parity=\xfe"}}}, `parameter featured: \"parity=\\xfe\"`},
		{server.BatchQuery{Endpoint: "concepts", Params: url.Values{"category": {"\xfftopic"}}}, `parameter category: \"\\xfftopic\"`},
		{server.BatchQuery{Endpoint: "concepts", Params: url.Values{"field": {"out\xffcome"}}}, `parameter field: \"out\\xffcome\"`},
	} {
		q := "/v1/" + c.q.Endpoint + "?" + url.Values(c.q.Params).Encode()
		want := `{"error":"` + c.want + ` is not valid UTF-8","status":400}` + "\n"
		for daemon, base := range map[string]string{"mono": monoBase, "fed": fedBase} {
			if status, _, body := get(t, base+q); status != http.StatusBadRequest || string(body) != want {
				t.Errorf("%s GET %s: %d %s, want 400 %s", daemon, q, status, body, want)
			}
		}
	}
	// An unknown batch endpoint is the same rejection on both daemons, and
	// what was once the shard-side wire is as unknown as any other name, to
	// both.
	for i, name := range []string{"nope", "marginals/assoc"} {
		want := fmt.Sprintf(`{"error":"unknown batch endpoint \"%s\"","status":400}`, name)
		for daemon, sub := range map[string]server.BatchResult{"mono": monoSubs[len(cases)+i], "fed": fedSubs[len(cases)+i]} {
			if sub.Status != http.StatusBadRequest || string(sub.Body) != want {
				t.Errorf("%s batch, endpoint %q: %d %s, want 400 %s", daemon, name, sub.Status, sub.Body, want)
			}
		}
	}
}

// TestNaNConfidenceIsABadRequest: strconv.ParseFloat reads "NaN", which
// no (0,1) comparison refuses. A query's confidence=NaN is the 400 that
// names it on both daemons, GET and batch, and the coordinator rejects
// it without a scatter; a daemon configured with a NaN default
// confidence answers at 0.95, like any other value outside (0,1).
func TestNaNConfidenceIsABadRequest(t *testing.T) {
	docs := voctest.ParityDocs(30)
	shard := startShard(t, docs, 0, 1, server.Config{Confidence: math.NaN()})
	waitIngestDone(t, shard)
	coord := startCoordinator(t, Config{Shards: shardAddrs([]*server.Server{shard}), Confidence: math.NaN()})
	bases := map[string]string{"mono": "http://" + shard.Addr(), "fed": "http://" + coord.Addr()}

	table := "/v1/associate?" + url.Values{"row": {"topic"}, "col": {"parity=even"}}.Encode()
	var bodies []string
	for daemon, base := range bases {
		status, _, body := get(t, base+table)
		if status != http.StatusOK || !bytes.Contains(body, []byte(`"confidence":0.95,`)) {
			t.Errorf("%s at a NaN default confidence: %d %s, want 200 at 0.95", daemon, status, body)
		}
		bodies = append(bodies, string(body))
	}
	if bodies[0] != bodies[1] {
		t.Errorf("the daemons' tables at a NaN default confidence differ:\n%s\n%s", bodies[0], bodies[1])
	}

	before := fedStatsz(t, bases["fed"]).Scatter
	for _, nan := range []string{"NaN", "nan"} {
		q := server.BatchQuery{Endpoint: "associate", Params: url.Values{"row": {"topic"}, "col": {"parity=even"}, "confidence": {nan}}}
		want := `{"error":"confidence must be a number in (0,1), got \"` + nan + `\"","status":400}`
		for daemon, base := range bases {
			if status, _, body := get(t, base+"/v1/associate?"+url.Values(q.Params).Encode()); status != http.StatusBadRequest || string(body) != want+"\n" {
				t.Errorf("%s GET confidence=%s: %d %s, want 400 %s", daemon, nan, status, body, want)
			}
			status, _, body := postFedBatch(t, base, server.BatchRequest{Queries: []server.BatchQuery{q}})
			var env server.BatchResponse
			if err := json.Unmarshal(body, &env); err != nil || status != http.StatusOK || len(env.Results) != 1 ||
				env.Results[0].Status != http.StatusBadRequest || string(env.Results[0].Body) != want {
				t.Errorf("%s batch confidence=%s: %d %s (%v), want a 400 sub-result %s", daemon, nan, status, body, err, want)
			}
		}
	}
	if after := fedStatsz(t, bases["fed"]).Scatter; after.Requests != before.Requests || after.Malformed != before.Malformed {
		t.Errorf("scatter section %+v after the NaN queries, was %+v: they reached the shards", after, before)
	}
}

// TestEmptyListsRenderEmpty pins, byte for byte, the bodies whose lists
// are empty — a relative-frequency report over an absent category, the
// trend of a dimension no document has, the vocabulary of an absent
// category or field, the documents of an empty cell — on a single daemon
// and on a 2-shard coordinator: each list is [], never null. Comparing
// the daemons with each other could not catch a null, since both would
// render it.
func TestEmptyListsRenderEmpty(t *testing.T) {
	docs := voctest.ParityDocs(60)
	single := startSingle(t, docs, server.Config{})
	shards := []*server.Server{startShard(t, docs, 0, 2, server.Config{}), startShard(t, docs, 1, 2, server.Config{})}
	waitIngestDone(t, append(shards, single)...)
	coord := startCoordinator(t, Config{Shards: shardAddrs(shards)})

	want := map[string]string{
		"/v1/relfreq?category=missing-category&featured=parity%3Deven": `"category":"missing-category","featured":"parity=even","rows":[]}`,
		"/v1/trend?dim=missing%5Btopic%5D":                             `"dim":"missing[topic]","points":[],"slope":0}`,
		"/v1/concepts?category=missing-category":                       `"category":"missing-category","values":[]}`,
		"/v1/concepts?field=missing-field":                             `"field":"missing-field","values":[]}`,
		"/v1/drilldown?row=billing%5Btopic%5D&col=parity%3Dodd":        `"row":"billing[topic]","col":"parity=odd","count":0,"truncated":false,"docs":[]}`,
	}
	for daemon, d := range map[string]struct {
		base string
		gen  uint64
	}{
		"bivocd":   {"http://" + single.Addr(), single.Generation()},
		"bivocfed": {"http://" + coord.Addr(), min(shards[0].Generation(), shards[1].Generation())},
	} {
		for q, rest := range want {
			body := fmt.Sprintf(`{"generation":%d,"sealed":true,%s`, d.gen, rest) + "\n"
			if status, _, got := get(t, d.base+q); status != http.StatusOK || string(got) != body {
				t.Errorf("%s %s: %d %s, want 200 %s", daemon, q, status, got, body)
			}
		}
	}
}

// TestFedShardShapeMismatch pins what the coordinator makes of a shard
// that breaks the exchange — a reply that is no frame, a partial cut
// short or with bytes to spare, counts or marginals shorter or longer
// than the plan's dimensions, a drill-down announcing more documents than
// it may or sending them out of ID order or twice, a document that is no
// whole record, a relayed error that is not JSON: a structured
// 500 naming the shard, on the GET and as the batch sub-result, never a
// silent under-count, an index panic or bytes passed on unchecked,
// whichever side of a well-formed shard it sits on.
func TestFedShardShapeMismatch(t *testing.T) {
	// fakeShard answers /v1/shard with one result per sub-query, looked up
	// by endpoint name, in a frame that mangle may damage; it serves
	// nothing else.
	type fake struct {
		results map[string]server.ShardResult
		ctype   string
		mangle  func(frame []byte) []byte
	}
	fakeShard := func(f fake) string {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/shard" {
				http.NotFound(w, r)
				return
			}
			frame := server.ShardFrame{Generation: 1, Sealed: true}
			for _, q := range shardQueries(t, r) {
				frame.Results = append(frame.Results, f.results[q.Endpoint])
			}
			b := frame.Append(nil)
			if f.mangle != nil {
				b = f.mangle(b)
			}
			w.Header().Set(server.GenerationHeader, "1")
			w.Header().Set("Content-Type", cmp.Or(f.ctype, server.FrameContentType))
			w.Write(b)
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	ok := func(partial []byte) server.ShardResult {
		return server.ShardResult{Status: http.StatusOK, Body: partial}
	}
	doc := func(id string) mining.Document {
		return mining.Document{ID: id, Concepts: []annotate.Concept{{Category: "topic", Canonical: "billing"}}}
	}
	good := map[string]server.ShardResult{
		"count":     ok(server.AppendCountPartial(nil, 9, []int{5, 4})),
		"associate": ok(server.AppendAssocPartial(nil, mining.AssocMarginals{N: 9, Nver: []int{5, 4}, Nhor: []int{3}, Ncell: [][]int{{2}, {1}}})),
		"drilldown": ok(server.AppendDrillDownPartial(nil, 5, []mining.Document{doc("doc-1"), doc("doc-2")})),
	}
	countQ := server.BatchQuery{Endpoint: "count", Params: url.Values{"dim": {"parity=even", "parity=odd"}}}
	assocQ := server.BatchQuery{Endpoint: "associate", Params: url.Values{"row": {"billing[topic]", "coverage[topic]"}, "col": {"parity=even"}}}
	drillQ := server.BatchQuery{Endpoint: "drilldown", Params: url.Values{"row": {"topic"}, "col": {"parity=even"}, "limit": {"2"}}}
	queries := []server.BatchQuery{countQ, assocQ, drillQ}

	// with is the good shard answering some endpoints otherwise.
	with := func(results map[string]server.ShardResult) fake {
		f := fake{results: map[string]server.ShardResult{}}
		for name, res := range good {
			f.results[name] = res
		}
		for name, res := range results {
			f.results[name] = res
		}
		return f
	}
	shapes := func(total int, counts []int, m mining.AssocMarginals) fake {
		return with(map[string]server.ShardResult{
			"count": ok(server.AppendCountPartial(nil, total, counts)), "associate": ok(server.AppendAssocPartial(nil, m))})
	}
	each := func(edit func(server.ShardResult) server.ShardResult) fake {
		f := with(nil)
		for name, res := range f.results {
			f.results[name] = edit(res)
		}
		return f
	}
	drill := func(count int, docs ...mining.Document) fake {
		return with(map[string]server.ShardResult{"drilldown": ok(server.AppendDrillDownPartial(nil, count, docs))})
	}
	// sent is a drill-down partial of one document sent as the bytes
	// record, which may be no record.
	sent := func(record []byte) fake {
		b := wire.AppendBytes(wire.AppendInt(wire.AppendInt(nil, 5), 1), record)
		return with(map[string]server.ShardResult{"drilldown": ok(b)})
	}
	record := store.AppendDocument(nil, doc("doc-1"))
	for _, c := range []struct {
		name   string
		bad    fake
		breaks []server.BatchQuery // every query when nil
	}{
		{name: "short", bad: shapes(9, []int{5}, mining.AssocMarginals{N: 9, Nver: []int{5}, Nhor: []int{3}, Ncell: [][]int{{2}}}), breaks: queries[:2]},
		{name: "long", bad: shapes(9, []int{5, 4, 3}, mining.AssocMarginals{N: 9, Nver: []int{5, 4, 3}, Nhor: []int{3, 1}, Ncell: [][]int{{2, 1}, {1, 0}, {0, 0}}}), breaks: queries[:2]},
		{name: "absent", bad: shapes(9, nil, mining.AssocMarginals{N: 9}), breaks: queries[:2]},
		{name: "ragged", bad: shapes(9, []int{5, 4, 3}, mining.AssocMarginals{N: 9, Nver: []int{5, 4}, Nhor: []int{3}, Ncell: [][]int{{2}, {1, 7}}}), breaks: queries[:2]},
		{name: "content-type", bad: fake{results: good, ctype: "application/json"}},
		{name: "version", bad: fake{results: good, mangle: func(b []byte) []byte { b[0]++; return b }}},
		{name: "result-count", bad: fake{results: good, mangle: func(b []byte) []byte {
			f, err := server.ReadShardFrame(b)
			if err != nil {
				t.Error(err)
			}
			f.Results = append(f.Results, f.Results[0])
			return f.Append(nil)
		}}},
		{name: "truncated-frame", bad: fake{results: good, mangle: func(b []byte) []byte { return b[:len(b)-1] }}},
		{name: "truncated-partial", bad: each(func(r server.ShardResult) server.ShardResult { return ok(r.Body[:len(r.Body)-1]) })},
		{name: "empty-partial", bad: each(func(server.ShardResult) server.ShardResult { return ok(nil) })},
		{name: "trailing-bytes", bad: each(func(r server.ShardResult) server.ShardResult { return ok(append(r.Body[:len(r.Body):len(r.Body)], 0)) })},
		{name: "drilldown-over-limit", bad: drill(5, doc("doc-1"), doc("doc-2"), doc("doc-3")), breaks: queries[2:]},
		{name: "drilldown-over-count", bad: drill(1, doc("doc-1"), doc("doc-2")), breaks: queries[2:]},
		{name: "drilldown-json-not-record", bad: sent([]byte(`{"id":"doc-0","fields":{},"time":0,"concepts":[]}`)), breaks: queries[2:]},
		{name: "drilldown-truncated-record", bad: sent(record[:len(record)-1]), breaks: queries[2:]},
		{name: "drilldown-record-trailing-bytes", bad: sent(append(record[:len(record):len(record)], 0)), breaks: queries[2:]},
		{name: "drilldown-out-of-order", bad: drill(5, doc("doc-2"), doc("doc-1")), breaks: queries[2:]},
		{name: "drilldown-repeated-id", bad: drill(5, doc("doc-1"), doc("doc-1")), breaks: queries[2:]},
		{name: "relay-not-json", bad: each(func(server.ShardResult) server.ShardResult {
			return server.ShardResult{Status: http.StatusBadRequest, Body: []byte(`{"error":"cut sho`)}
		})},
		{name: "relay-not-4xx", bad: each(func(server.ShardResult) server.ShardResult {
			return server.ShardResult{Status: 42, Body: []byte(`{"error":"odd","status":42}`)}
		})},
	} {
		for badAt := 0; badAt < 2; badAt++ {
			t.Run(fmt.Sprintf("%s/bad-shard-%d", c.name, badAt), func(t *testing.T) {
				addrs := []string{fakeShard(with(nil)), fakeShard(with(nil))}
				addrs[badAt] = fakeShard(c.bad)
				fedBase := "http://" + startCoordinator(t, Config{Shards: addrs}).Addr()
				_, _, body := postFedBatch(t, fedBase, server.BatchRequest{Queries: queries})
				var env server.BatchResponse
				if err := json.Unmarshal(body, &env); err != nil || len(env.Results) != len(queries) {
					t.Fatalf("batch envelope: %v: %s", err, body)
				}
				breaks := c.breaks
				if breaks == nil {
					breaks = queries
				}
				noFrame := c.bad.mangle != nil || c.bad.ctype != ""
				for i, q := range queries {
					status, _, body := get(t, fedBase+"/v1/"+q.Endpoint+"?"+url.Values(q.Params).Encode())
					var fb fedBody
					if err := json.Unmarshal(body, &fb); err != nil {
						t.Fatalf("%s: body not structured: %v: %s", q.Endpoint, err, body)
					}
					broken := slices.ContainsFunc(breaks, func(b server.BatchQuery) bool { return b.Endpoint == q.Endpoint })
					switch {
					case !broken && status != http.StatusOK:
						t.Errorf("%s: status %d body %s, want the two good partials merged", q.Endpoint, status, body)
					case broken && (status != http.StatusInternalServerError || fb.Status != status || !strings.HasPrefix(fb.Error, fmt.Sprintf("shard %d: ", badAt))):
						t.Errorf("%s: status %d body %s, want a structured 500 naming shard %d", q.Endpoint, status, body, badAt)
					}
					// The sub-result is the GET's body — except that what is wrong
					// with a whole frame may be worded in its sizes, which differ
					// between a frame of three results and a frame of one.
					sub := env.Results[i]
					var sb fedBody
					if err := json.Unmarshal(sub.Body, &sb); err != nil {
						t.Fatalf("%s: batch sub-result not structured: %v: %s", q.Endpoint, err, sub.Body)
					}
					same := bytes.Equal(append(append([]byte{}, sub.Body...), '\n'), body)
					if noFrame {
						same = sb.Status == fb.Status && strings.HasPrefix(sb.Error, fmt.Sprintf("shard %d: decoding frame: ", badAt)) == strings.HasPrefix(fb.Error, fmt.Sprintf("shard %d: decoding frame: ", badAt))
					}
					if sub.Status != status || !same {
						t.Errorf("%s: batch sub-result %d %s diverges from GET %d %s", q.Endpoint, sub.Status, sub.Body, status, body)
					}
				}
				// A reply that is no frame is turned down once per request (the
				// batch, and each GET); a frame with a bad result in it, once per
				// query that meets it.
				want := 2 * len(breaks)
				if noFrame {
					want = 1 + len(queries)
				}
				if sr := fedStatsz(t, fedBase); sr.Scatter.Malformed != uint64(want) {
					t.Errorf("scatter section counts %d malformed replies, want %d", sr.Scatter.Malformed, want)
				}
			})
		}
	}
}

// TestFedShardFrameKeepsNewlineBytes: a partial that ends in 0x0A — a
// count of 10 in last position — crosses the frame and the coordinator
// whole: nothing on that path trims a newline the way a batch envelope
// trims a JSON body's.
func TestFedShardFrameKeepsNewlineBytes(t *testing.T) {
	partial := server.AppendCountPartial(nil, 10, []int{10})
	if partial[len(partial)-1] != '\n' {
		t.Fatalf("the fixture partial %q does not end in a newline byte", partial)
	}
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serveFrame(w, uniformFrame(1, shardQueries(t, r), http.StatusOK, partial))
	}))
	t.Cleanup(shard.Close)
	fedBase := "http://" + startCoordinator(t, Config{Shards: []string{shard.URL, shard.URL}}).Addr()
	q := server.BatchQuery{Endpoint: "count", Params: url.Values{"dim": {"parity=even"}}}
	const want = `{"generation":1,"sealed":true,"total":20,"dims":["parity=even"],"counts":[20]}`
	if status, _, body := get(t, fedBase+"/v1/count?"+url.Values(q.Params).Encode()); status != http.StatusOK || string(body) != want+"\n" {
		t.Errorf("GET: %d %s, want %s", status, body, want)
	}
	_, _, body := postFedBatch(t, fedBase, server.BatchRequest{Queries: []server.BatchQuery{q, q}})
	if want := `{"generation":1,"sealed":true,"results":[{"status":200,"body":` + want + `},{"status":200,"body":` + want + `}]}` + "\n"; string(body) != want {
		t.Errorf("batch: %s, want %s", body, want)
	}
}

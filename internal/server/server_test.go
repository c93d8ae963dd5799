package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"testing"
	"time"

	"bivoc/internal/mining"
	"bivoc/internal/voctest"
)

// oracleBodies renders what a sealed daemon at generation gen over docs
// must answer to each /v1 query of a battery: the endpoint table's
// Plan.Local over the naive view of one monolithic index, marshalled in
// the test process — it shares nothing with a daemon but the documents.
func oracleBodies(t *testing.T, docs []mining.Document, gen uint64, queries []string) map[string][]byte {
	t.Helper()
	naive := voctest.Index(docs).Naive()
	return voctest.Bodies(t, queries, func(endpoint string, params url.Values) (any, error) {
		plan, err := NewEndpoints(0).Plan(endpoint, params)
		if err != nil {
			return nil, err
		}
		return plan.Local(naive, Head{Generation: gen, Sealed: true}), nil
	})
}

func sliceSource(docs []mining.Document) DocSource {
	return func(ctx context.Context, _ func(string) bool, emit func(mining.Document) error) error {
		for _, d := range docs {
			if err := emit(d); err != nil {
				return err
			}
		}
		return nil
	}
}

// startServer starts a server on a free port and registers a graceful
// shutdown cleanup.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

func waitIngestDone(t *testing.T, s *Server) {
	t.Helper()
	select {
	case <-s.IngestDone():
	case <-time.After(10 * time.Second):
		t.Fatal("ingest did not finish in time")
	}
}

// testClient disables keep-alives: a pooled connection that was dialed
// but never carried a request sits in StateNew server-side, and
// http.Server.Shutdown waits ~5s before treating StateNew as idle
// (go issue 22682) — with keep-alives off no connection outlives its
// request, so graceful shutdowns in tests are prompt and deterministic.
var testClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

// get fetches a URL and returns status + body.
func get(t *testing.T, rawurl string) (int, []byte) {
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
	return resp.StatusCode, body
}

// getOK fetches a URL, requires 200, and unmarshals into out.
func getOK(t *testing.T, rawurl string, out any) []byte {
	t.Helper()
	status, body := get(t, rawurl)
	if status != http.StatusOK {
		t.Fatalf("GET %s: status %d, body %s", rawurl, status, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("GET %s: unmarshal: %v\nbody: %s", rawurl, err, body)
	}
	return body
}

// mustJSON marshals an expected response the way the handler does
// (json.Marshal + trailing newline) so byte comparison is exact.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestEndpointsMatchDirectIndex starts the server over a deterministic
// corpus, waits for the sealed snapshot, and pins every /v1 endpoint's
// response byte-identical to the equivalent direct mining.Index calls.
func TestEndpointsMatchDirectIndex(t *testing.T) {
	t.Parallel()
	docs := voctest.ParityDocs(120)
	s := startServer(t, Config{Source: sliceSource(docs)})
	waitIngestDone(t, s)
	base := "http://" + s.Addr()
	ix := voctest.Index(docs)
	gen, n, sealed := s.SnapshotInfo()
	if !sealed || n != len(docs) {
		t.Fatalf("final snapshot gen=%d docs=%d sealed=%v, want %d sealed docs", gen, n, sealed, len(docs))
	}

	topicDim := mining.ConceptDim("topic", "billing")
	outcomeDim := mining.FieldDim("outcome", "reservation")
	bothDim := mining.AndDim(topicDim, outcomeDim)

	t.Run("count", func(t *testing.T) {
		u := base + "/v1/count?" + url.Values{"dim": {
			topicDim.Label(), outcomeDim.Label(), bothDim.Label(),
		}}.Encode()
		var got CountResponse
		body := getOK(t, u, &got)
		want := CountResponse{
			Generation: gen,
			Sealed:     true,
			Total:      ix.Len(),
			Dims:       []string{topicDim.CanonicalLabel(), outcomeDim.CanonicalLabel(), bothDim.CanonicalLabel()},
			Counts:     []int{ix.Count(topicDim), ix.Count(outcomeDim), ix.Count(bothDim)},
		}
		if !bytes.Equal(body, mustJSON(t, want)) {
			t.Errorf("count response drifted:\n got %s\nwant %s", body, mustJSON(t, want))
		}
		if got.Counts[2] == 0 || got.Counts[0] <= got.Counts[2] {
			t.Errorf("implausible counts %v — corpus construction broken?", got.Counts)
		}
	})

	t.Run("associate", func(t *testing.T) {
		rows := []mining.Dim{mining.ConceptDim("topic", "billing"), mining.ConceptDim("topic", "coverage")}
		cols := []mining.Dim{mining.FieldDim("outcome", "reservation"), mining.FieldDim("outcome", "unbooked")}
		v := url.Values{
			"row":        {rows[0].Label(), rows[1].Label()},
			"col":        {cols[0].Label(), cols[1].Label()},
			"confidence": {"0.9"},
		}
		var got AssociateResponse
		body := getOK(t, base+"/v1/associate?"+v.Encode(), &got)
		tbl := ix.Associate(rows, cols, 0.9)
		want := AssociateResponse{
			Generation: gen, Sealed: true, Confidence: 0.9,
			Rows:  []string{rows[0].CanonicalLabel(), rows[1].CanonicalLabel()},
			Cols:  []string{cols[0].CanonicalLabel(), cols[1].CanonicalLabel()},
			Cells: tbl.Cells,
		}
		if !bytes.Equal(body, mustJSON(t, want)) {
			t.Errorf("associate response drifted:\n got %s\nwant %s", body, mustJSON(t, want))
		}
	})

	t.Run("relfreq", func(t *testing.T) {
		v := url.Values{"category": {"topic"}, "featured": {outcomeDim.Label()}}
		var got RelFreqResponse
		body := getOK(t, base+"/v1/relfreq?"+v.Encode(), &got)
		rel := ix.RelativeFrequency("topic", outcomeDim)
		want := RelFreqResponse{
			Generation: gen, Sealed: true,
			Category: "topic", Featured: outcomeDim.CanonicalLabel(),
			Rows: rel,
		}
		if !bytes.Equal(body, mustJSON(t, want)) {
			t.Errorf("relfreq response drifted:\n got %s\nwant %s", body, mustJSON(t, want))
		}
	})

	t.Run("drilldown", func(t *testing.T) {
		v := url.Values{"row": {topicDim.Label()}, "col": {outcomeDim.Label()}, "limit": {"7"}}
		var got DrillDownResponse
		body := getOK(t, base+"/v1/drilldown?"+v.Encode(), &got)
		cell := ix.DrillDown(topicDim, outcomeDim)
		want := DrillDownResponse{
			Generation: gen, Sealed: true,
			Row: topicDim.CanonicalLabel(), Col: outcomeDim.CanonicalLabel(),
			Count: len(cell), Truncated: len(cell) > 7,
		}
		lim := cell
		if len(lim) > 7 {
			lim = lim[:7]
		}
		for _, d := range lim {
			concepts := make([]ConceptJSON, len(d.Concepts))
			for j, c := range d.Concepts {
				concepts[j] = ConceptJSON{Category: c.Category, Canonical: c.Canonical}
			}
			want.Docs = append(want.Docs, DocumentJSON{ID: d.ID, Fields: d.Fields, Time: d.Time, Concepts: concepts})
		}
		if !bytes.Equal(body, mustJSON(t, want)) {
			t.Errorf("drilldown response drifted:\n got %s\nwant %s", body, mustJSON(t, want))
		}
		if !got.Truncated || got.Count <= 7 {
			t.Errorf("expected a truncated cell bigger than the limit, got count=%d truncated=%v", got.Count, got.Truncated)
		}
	})

	t.Run("trend", func(t *testing.T) {
		v := url.Values{"dim": {topicDim.Label()}}
		var got TrendResponse
		body := getOK(t, base+"/v1/trend?"+v.Encode(), &got)
		pts := ix.Trend(topicDim)
		want := TrendResponse{
			Generation: gen, Sealed: true, Dim: topicDim.CanonicalLabel(),
			Points: pts,
			Slope:  mining.TrendSlope(pts),
		}
		if !bytes.Equal(body, mustJSON(t, want)) {
			t.Errorf("trend response drifted:\n got %s\nwant %s", body, mustJSON(t, want))
		}
	})

	t.Run("concepts", func(t *testing.T) {
		var got ConceptsResponse
		body := getOK(t, base+"/v1/concepts?category=topic", &got)
		want := ConceptsResponse{
			Generation: gen, Sealed: true, Category: "topic",
			Values: ix.ConceptsInCategory("topic"),
		}
		if !bytes.Equal(body, mustJSON(t, want)) {
			t.Errorf("concepts(category) response drifted:\n got %s\nwant %s", body, mustJSON(t, want))
		}
		var gotF ConceptsResponse
		bodyF := getOK(t, base+"/v1/concepts?field=outcome", &gotF)
		wantF := ConceptsResponse{
			Generation: gen, Sealed: true, Field: "outcome",
			Values: ix.FieldValues("outcome"),
		}
		if !bytes.Equal(bodyF, mustJSON(t, wantF)) {
			t.Errorf("concepts(field) response drifted:\n got %s\nwant %s", bodyF, mustJSON(t, wantF))
		}
	})

	t.Run("healthz", func(t *testing.T) {
		var got HealthResponse
		getOK(t, base+"/healthz", &got)
		if got.Status != "ok" || !got.Sealed || got.Docs != len(docs) || got.Generation != gen {
			t.Errorf("healthz = %+v, want ok/sealed/%d docs at gen %d", got, len(docs), gen)
		}
	})

	t.Run("statsz", func(t *testing.T) {
		var got StatszResponse
		getOK(t, base+"/statsz", &got)
		if got.Docs != len(docs) || !got.Sealed {
			t.Errorf("statsz = %+v, want %d sealed docs", got, len(docs))
		}
		if got.Cache.Capacity != 256 {
			t.Errorf("default cache capacity = %d, want 256", got.Cache.Capacity)
		}
	})

	t.Run("errors", func(t *testing.T) {
		for _, u := range []string{
			base + "/v1/count", // missing dim
			base + "/v1/count?dim=" + url.QueryEscape("a=b[c]"), // ambiguous label
			base + "/v1/associate?row=x",                        // missing col
			base + "/v1/relfreq?featured=x",                     // missing category
			base + "/v1/trend?dim=x&dim=y",                      // two dims
			base + "/v1/concepts",                               // neither selector
			base + "/v1/drilldown?row=x&col=y&limit=-1",         // bad limit
		} {
			status, body := get(t, u)
			if status != http.StatusBadRequest {
				t.Errorf("GET %s: status %d (body %s), want 400", u, status, body)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Errorf("GET %s: error body %s not of the {error} shape", u, body)
			}
		}
	})
}

// TestMidIngestSnapshotMatchesBatch uses a hand-driven source to stop
// ingestion at an exact document count, then checks the mid-ingest
// snapshot answers byte-identically to a batch index over exactly those
// documents.
func TestMidIngestSnapshotMatchesBatch(t *testing.T) {
	const firstBatch, total = 48, 96
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

	for _, d := range docs[:firstBatch] {
		feed <- d
	}
	// SwapEvery fired synchronously inside the emit of doc #48; wait for
	// the publish to land.
	deadline := time.Now().Add(5 * time.Second)
	for s.Generation() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("snapshot swap did not land")
		}
		time.Sleep(time.Millisecond)
	}

	ix := voctest.Index(docs[:firstBatch])
	dim := mining.FieldDim("outcome", "reservation")
	var got CountResponse
	body := getOK(t, base+"/v1/count?"+url.Values{"dim": {dim.Label()}}.Encode(), &got)
	want := CountResponse{
		Generation: 1, Sealed: false,
		Total:  ix.Len(),
		Dims:   []string{dim.CanonicalLabel()},
		Counts: []int{ix.Count(dim)},
	}
	if !bytes.Equal(body, mustJSON(t, want)) {
		t.Errorf("mid-ingest count drifted:\n got %s\nwant %s", body, mustJSON(t, want))
	}

	for _, d := range docs[firstBatch:] {
		feed <- d
	}
	close(feed)
	waitIngestDone(t, s)

	full := voctest.Index(docs)
	var got2 CountResponse
	getOK(t, base+"/v1/count?"+url.Values{"dim": {dim.Label()}}.Encode(), &got2)
	if !got2.Sealed || got2.Total != full.Len() || got2.Counts[0] != full.Count(dim) {
		t.Errorf("sealed count = %+v, want total=%d count=%d sealed", got2, full.Len(), full.Count(dim))
	}
	if got2.Generation <= got.Generation {
		t.Errorf("generation did not advance across the seal: %d → %d", got.Generation, got2.Generation)
	}
}

// TestCacheHitsAreByteIdenticalAndInvalidatedOnSwap covers the caching
// contract: a repeat query is a byte-identical hit; a snapshot swap
// invalidates the whole cache so the next query recomputes against the
// new generation.
func TestCacheHitsAreByteIdenticalAndInvalidatedOnSwap(t *testing.T) {
	feed := make(chan mining.Document)
	src := func(ctx context.Context, _ func(string) bool, emit func(mining.Document) error) error {
		for d := range feed {
			if err := emit(d); err != nil {
				return err
			}
		}
		return nil
	}
	s := startServer(t, Config{Source: src, SwapEvery: 10})
	base := "http://" + s.Addr()
	docs := voctest.ParityDocs(20)
	u := base + "/v1/count?" + url.Values{"dim": {"parity=even", "parity=odd"}}.Encode()

	for _, d := range docs[:10] {
		feed <- d
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Generation() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("swap did not land")
		}
		time.Sleep(time.Millisecond)
	}

	var r1 CountResponse
	b1 := getOK(t, u, &r1)
	hits, misses := s.CacheStats()
	if hits != 0 || misses != 1 {
		t.Fatalf("after first query: hits=%d misses=%d, want 0/1", hits, misses)
	}
	var r2 CountResponse
	b2 := getOK(t, u, &r2)
	if !bytes.Equal(b1, b2) {
		t.Errorf("cached response differs from uncached:\n%s\n%s", b1, b2)
	}
	if hits, _ := s.CacheStats(); hits != 1 {
		t.Errorf("second query did not hit the cache (hits=%d)", hits)
	}
	if r1.Counts[0]+r1.Counts[1] != r1.Total || r1.Total != 10 {
		t.Errorf("parity identity broken: %+v", r1)
	}

	// Swap: ten more docs. The cache must not serve generation-1 bytes.
	for _, d := range docs[10:] {
		feed <- d
	}
	for s.Generation() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("second swap did not land")
		}
		time.Sleep(time.Millisecond)
	}
	var r3 CountResponse
	b3 := getOK(t, u, &r3)
	if _, misses := s.CacheStats(); misses != 2 {
		t.Errorf("post-swap query should miss the fresh cache (misses=%d)", misses)
	}
	if bytes.Equal(b2, b3) {
		t.Errorf("post-swap response identical to pre-swap — stale cache served: %s", b3)
	}
	if r3.Generation != 2 || r3.Total != 20 || r3.Counts[0]+r3.Counts[1] != 20 {
		t.Errorf("post-swap response inconsistent: %+v", r3)
	}
	close(feed)
	waitIngestDone(t, s)
}

// TestCacheLRUEviction pins the eviction order with a capacity-2 cache.
func TestCacheLRUEviction(t *testing.T) {
	s := startServer(t, Config{Source: sliceSource(voctest.ParityDocs(12)), CacheSize: 2})
	waitIngestDone(t, s)
	base := "http://" + s.Addr()
	qa := base + "/v1/count?dim=" + url.QueryEscape("parity=even")
	qb := base + "/v1/count?dim=" + url.QueryEscape("parity=odd")
	qc := base + "/v1/count?dim=" + url.QueryEscape("outcome=service")

	var r CountResponse
	getOK(t, qa, &r) // miss, cache {a}
	getOK(t, qb, &r) // miss, cache {b,a}
	getOK(t, qa, &r) // hit, cache {a,b}
	getOK(t, qc, &r) // miss, evicts b, cache {c,a}
	getOK(t, qb, &r) // miss, evicts a, cache {b,c}
	getOK(t, qc, &r) // hit
	hits, misses := s.CacheStats()
	if hits != 2 || misses != 4 {
		t.Errorf("LRU accounting: hits=%d misses=%d, want 2/4", hits, misses)
	}
}

func TestLRUCacheUnit(t *testing.T) {
	cb := func(s string) *CachedBody { return &CachedBody{Plain: []byte(s)} }
	c := newLRUCache(2)
	c.put("a", cb("A"))
	c.put("b", cb("B"))
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted too early")
	}
	c.put("c", cb("C")) // evicts b (a was just used)
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted")
	}
	if v, ok := c.get("a"); !ok || string(v.Plain) != "A" {
		t.Error("a lost")
	}
	if v, ok := c.get("c"); !ok || string(v.Plain) != "C" {
		t.Error("c lost")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
	// Overwrite keeps one entry.
	c.put("a", cb("A2"))
	if v, _ := c.get("a"); string(v.Plain) != "A2" {
		t.Error("overwrite did not take")
	}
	if c.len() != 2 {
		t.Errorf("len after overwrite = %d, want 2", c.len())
	}
	// Capacity 0 disables caching entirely.
	z := newLRUCache(0)
	z.put("k", cb("v"))
	if _, ok := z.get("k"); ok {
		t.Error("zero-capacity cache stored an entry")
	}
}

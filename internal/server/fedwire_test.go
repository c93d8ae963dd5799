package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"bivoc/internal/mining"
	"bivoc/internal/store"
	"bivoc/internal/voctest"
	"bivoc/internal/wire"
)

// The federation wire suite: the generation header every response must
// carry, the structured error bodies the coordinator relays, and the
// partials of the /v1/shard exchange it merges across shards.

// getWithHeader fetches a URL and returns status, the generation
// header, and the body.
func getWithHeader(t *testing.T, rawurl string) (int, string, []byte) {
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
	return resp.StatusCode, resp.Header.Get(GenerationHeader), body
}

// TestGenerationHeaderOnEveryResponse pins the consistency-signal
// satellite: every response — query results, introspection, parse
// errors, even unknown routes — carries X-Bivoc-Generation, and on
// generation-bearing bodies the header agrees with the body.
func TestGenerationHeaderOnEveryResponse(t *testing.T) {
	docs := voctest.ParityDocs(60)
	s := startServer(t, Config{Source: sliceSource(docs)})
	waitIngestDone(t, s)
	base := "http://" + s.Addr()
	wantGen := fmt.Sprint(s.Generation())

	dim := url.QueryEscape("outcome=reservation")
	row := url.QueryEscape("billing[topic]")
	urls := []struct {
		path       string
		wantStatus int
	}{
		{"/v1/count?dim=" + dim, 200},
		{"/v1/associate?row=" + row + "&col=" + dim, 200},
		{"/v1/relfreq?category=topic&featured=" + dim, 200},
		{"/v1/drilldown?row=" + row + "&col=" + dim, 200},
		{"/v1/trend?dim=" + dim, 200},
		{"/v1/concepts?category=topic", 200},
		{"/healthz", 200},
		{"/statsz", 200},
		{"/v1/count", 400},             // missing dim: parse error path
		{"/v1/count?dim=%5Bnope", 400}, // unparsable dimension
		{"/v1/definitely-not-a-route", 404},
	}
	for _, u := range urls {
		status, gen, body := getWithHeader(t, base+u.path)
		if status != u.wantStatus {
			t.Fatalf("GET %s: status %d, want %d (body %s)", u.path, status, u.wantStatus, body)
		}
		if gen != wantGen {
			t.Fatalf("GET %s: %s header = %q, want %q", u.path, GenerationHeader, gen, wantGen)
		}
		if status != http.StatusOK {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("GET %s: unmarshal: %v", u.path, err)
		}
		if g, ok := m["generation"].(float64); ok && fmt.Sprint(uint64(g)) != gen {
			t.Fatalf("GET %s: body generation %v, header %q", u.path, g, gen)
		}
	}

	// The cached (hit) path must carry the header too.
	_, gen, _ := getWithHeader(t, base+"/v1/count?dim="+dim)
	if gen != wantGen {
		t.Fatalf("cache-hit response %s header = %q, want %q", GenerationHeader, gen, wantGen)
	}
}

// TestEpochHeaderOnEveryResponse pins the boot epoch: every response of
// one process — queries, the shard exchange, introspection, errors and
// unknown routes — carries the same X-Bivoc-Epoch, and a second process
// over the same documents, at the same generation, carries another.
func TestEpochHeaderOnEveryResponse(t *testing.T) {
	docs := voctest.ParityDocs(30)
	var epochs []string
	for range 2 {
		s := startServer(t, Config{Source: sliceSource(docs)})
		waitIngestDone(t, s)
		base := "http://" + s.Addr()
		frame := AppendShardRequest(nil, []BatchQuery{{Endpoint: "count", Params: map[string][]string{"dim": {"parity=even"}}}})
		var seen []string
		for _, req := range []struct{ method, path string }{
			{"GET", "/v1/count?dim=" + url.QueryEscape("parity=even")},
			{"GET", "/v1/count?dim=" + url.QueryEscape("parity=even")}, // a cache hit
			{"POST", "/v1/shard"},
			{"GET", "/healthz"},
			{"GET", "/v1/count"},
			{"GET", "/v1/definitely-not-a-route"},
		} {
			r, err := http.NewRequest(req.method, base+req.path, bytes.NewReader(frame))
			if err != nil {
				t.Fatal(err)
			}
			r.Header.Set("Content-Type", FrameContentType)
			resp, err := testClient.Do(r)
			if err != nil {
				t.Fatalf("%s %s: %v", req.method, req.path, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			seen = append(seen, resp.Header.Get(EpochHeader))
		}
		if seen[0] == "" || strings.Count(strings.Join(seen, ","), seen[0]) != len(seen) {
			t.Fatalf("epochs of one process: %q, want one non-empty epoch throughout", seen)
		}
		epochs = append(epochs, seen[0])
	}
	if epochs[0] == epochs[1] {
		t.Fatalf("two processes share the epoch %q", epochs[0])
	}
}

// TestErrorBodiesAreStructuredJSON pins the error-body satellite: every
// non-200 reply is {"error": "...", "status": N} with the HTTP status
// echoed in the body, so the coordinator can relay shard errors.
func TestErrorBodiesAreStructuredJSON(t *testing.T) {
	s := startServer(t, Config{Source: sliceSource(voctest.ParityDocs(20))})
	waitIngestDone(t, s)
	base := "http://" + s.Addr()

	cases := []struct {
		path       string
		wantStatus int
		wantSubstr string
	}{
		{"/v1/count", http.StatusBadRequest, "dim"},
		{"/v1/relfreq?featured=" + url.QueryEscape("outcome=reservation"), http.StatusBadRequest, "category"},
		{"/v1/trend?dim=a%5Bb%5D&dim=c%5Bd%5D", http.StatusBadRequest, "exactly one"},
		{"/v1/drilldown?row=a%5Bb%5D&col=c%5Bd%5D&limit=-2", http.StatusBadRequest, "limit"},
	}
	for _, c := range cases {
		resp, err := testClient.Get(base + c.path)
		if err != nil {
			t.Fatal(err)
		}
		var e ErrorResponse
		derr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if derr != nil {
			t.Fatalf("GET %s: error body is not JSON: %v", c.path, derr)
		}
		if resp.StatusCode != c.wantStatus {
			t.Fatalf("GET %s: status %d, want %d", c.path, resp.StatusCode, c.wantStatus)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("GET %s: Content-Type %q, want application/json", c.path, ct)
		}
		if e.Status != c.wantStatus {
			t.Fatalf("GET %s: body status %d, want %d (error %q)", c.path, e.Status, c.wantStatus, e.Error)
		}
		if !strings.Contains(e.Error, c.wantSubstr) {
			t.Fatalf("GET %s: error %q does not mention %q", c.path, e.Error, c.wantSubstr)
		}
	}
}

// postShardBody POSTs a request body of the given content type to the
// daemon's /v1/shard and returns the reply.
func postShardBody(t *testing.T, base, ctype string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := testClient.Post(base+"/v1/shard", ctype, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, reply
}

// postShard POSTs queries to the daemon's /v1/shard as a request frame
// and decodes the reply's.
func postShard(t *testing.T, base string, queries ...BatchQuery) ShardFrame {
	t.Helper()
	resp, body := postShardBody(t, base, FrameContentType, AppendShardRequest(nil, queries))
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != FrameContentType {
		t.Fatalf("POST /v1/shard: status %d, Content-Type %q, body %q", resp.StatusCode, ct, body)
	}
	if cl := resp.Header.Get("Content-Length"); cl != fmt.Sprint(len(body)) {
		t.Fatalf("POST /v1/shard: Content-Length %q for %d bytes", cl, len(body))
	}
	frame, err := ReadShardFrame(body)
	if err != nil {
		t.Fatalf("POST /v1/shard: %v (frame %q)", err, body)
	}
	if len(frame.Results) != len(queries) {
		t.Fatalf("POST /v1/shard: %d results for %d queries", len(frame.Results), len(queries))
	}
	if got := frame.Append(nil); !bytes.Equal(got, body) {
		t.Fatalf("frame re-encodes to %q, was %q", got, body)
	}
	return frame
}

// sameList is reflect.DeepEqual, except that an empty list equals a nil
// one: a partial carries a length, not whether the slice behind it was
// allocated.
func sameList[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestMarginalEndpointsMatchDirectIndex pins the exchange between daemons
// against direct mining calls over the same corpus, on random worlds:
// every partial /v1/shard sends decodes to exactly what the mining.Querier
// call behind it returns and re-encodes to the bytes sent; the second
// request, served from the snapshot LRU, sends the same frame; and
// finalizing the decoded marginals reproduces the float endpoints.
func TestMarginalEndpointsMatchDirectIndex(t *testing.T) {
	t.Parallel()
	dims := func(labels ...string) []mining.Dim {
		out := make([]mining.Dim, len(labels))
		for i, l := range labels {
			d, err := mining.ParseDim(l)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = d
		}
		return out
	}
	read := func(body []byte, decode func(*wire.Reader)) {
		t.Helper()
		r := wire.NewReader(body)
		decode(&r)
		if err := r.Done(); err != nil {
			t.Fatalf("partial %q: %v", body, err)
		}
	}
	for seed := int64(0); seed < 4; seed++ {
		t.Run(fmt.Sprintf("world-%d", seed), func(t *testing.T) {
			t.Parallel()
			docs := voctest.NewWorld(seed, 60+int(seed)*70).Docs
			ix := voctest.Index(docs)
			s := startServer(t, Config{Source: sliceSource(docs)})
			waitIngestDone(t, s)
			base := "http://" + s.Addr()

			countDims := []string{"billing[issue]", "issue", "outcome=reservation", "no-such[issue]", "billing[issue] ∧ agent=A2"}
			rowLabels, colLabels := []string{"billing[issue]", "outage[issue]", "brand"}, []string{"outcome=reservation", "sentiment"}
			queries := []BatchQuery{
				{Endpoint: "count", Params: url.Values{"dim": countDims}},
				{Endpoint: "trend", Params: url.Values{"dim": {"issue"}}},
				{Endpoint: "concepts", Params: url.Values{"category": {"issue"}}},
				{Endpoint: "concepts", Params: url.Values{"category": {"missing-category"}}},
				{Endpoint: "concepts", Params: url.Values{"field": {"agent"}}},
				{Endpoint: "concepts", Params: url.Values{"field": {"missing-field"}}},
				{Endpoint: "relfreq", Params: url.Values{"category": {"issue"}, "featured": {"outcome=reservation"}}},
				{Endpoint: "associate", Params: url.Values{"row": rowLabels, "col": colLabels, "confidence": {"0.9"}}},
				{Endpoint: "drilldown", Params: url.Values{"row": {"issue"}, "col": {"brand"}, "limit": {"7"}}},
				{Endpoint: "drilldown", Params: url.Values{"row": {"no-such[issue]"}, "col": {"brand"}}},
				{Endpoint: "nope"},
				{Endpoint: "count"},
			}
			frame := postShard(t, base, queries...)
			if again := postShard(t, base, queries...); !reflect.DeepEqual(again, frame) {
				t.Fatalf("the frame served from the snapshot LRU differs:\n%+v\n%+v", again, frame)
			}
			if gen, _, sealed := s.SnapshotInfo(); frame.Generation != gen || frame.Sealed != sealed {
				t.Fatalf("frame head %d/%v, snapshot %d/%v", frame.Generation, frame.Sealed, gen, sealed)
			}
			for i, res := range frame.Results[:len(queries)-2] {
				if res.Status != http.StatusOK {
					t.Fatalf("sub %d (%s): status %d, body %s", i, queries[i].Endpoint, res.Status, res.Body)
				}
			}
			// A rejected sub-query carries the body its GET route sends, less
			// the newline.
			for i, want := range map[int]string{len(queries) - 2: `{"error":"unknown batch endpoint \"nope\"","status":400}`} {
				if res := frame.Results[i]; res.Status != http.StatusBadRequest || string(res.Body) != want {
					t.Errorf("sub %d: %d %s, want 400 %s", i, res.Status, res.Body, want)
				}
			}
			_, wantMissingDim := get(t, base+"/v1/count")
			if res := frame.Results[len(queries)-1]; res.Status != http.StatusBadRequest || string(res.Body)+"\n" != string(wantMissingDim) {
				t.Errorf("count without dim: %d %s, GET answers %s", res.Status, res.Body, wantMissingDim)
			}

			read(frame.Results[0].Body, func(r *wire.Reader) {
				got := readCountPartial(r)
				want := make([]int, len(countDims))
				for i, d := range dims(countDims...) {
					want[i] = ix.Count(d)
				}
				if got.total != ix.Len() || !sameList(got.counts, want) {
					t.Errorf("count partial %+v, direct %d %v", got, ix.Len(), want)
				}
				if re := AppendCountPartial(nil, got.total, got.counts); !bytes.Equal(re, frame.Results[0].Body) {
					t.Errorf("count partial re-encodes to %q, was %q", re, frame.Results[0].Body)
				}
			})
			read(frame.Results[1].Body, func(r *wire.Reader) {
				got := readTrendPartial(r)
				if want := ix.Trend(dims("issue")[0]); !sameList(got, want) {
					t.Errorf("trend partial %v, direct %v", got, want)
				}
				if re := appendTrendPartial(nil, got); !bytes.Equal(re, frame.Results[1].Body) {
					t.Errorf("trend partial re-encodes to %q, was %q", re, frame.Results[1].Body)
				}
			})
			for i, category := range map[int]string{2: "issue", 3: "missing-category"} {
				read(frame.Results[i].Body, func(r *wire.Reader) {
					got := readConceptDFPartial(r)
					if want := ix.ConceptDF(category); !sameList(got, want) {
						t.Errorf("ConceptDF(%s) partial %v, direct %v", category, got, want)
					}
					if re := appendConceptDFPartial(nil, got); !bytes.Equal(re, frame.Results[i].Body) {
						t.Errorf("ConceptDF partial re-encodes to %q, was %q", re, frame.Results[i].Body)
					}
				})
			}
			for i, field := range map[int]string{4: "agent", 5: "missing-field"} {
				read(frame.Results[i].Body, func(r *wire.Reader) {
					got := readStringsPartial(r)
					if want := ix.FieldValues(field); !sameList(got, want) {
						t.Errorf("FieldValues(%s) partial %q, direct %q", field, got, want)
					}
					if re := appendStringsPartial(nil, got); !bytes.Equal(re, frame.Results[i].Body) {
						t.Errorf("field values partial re-encodes to %q, was %q", re, frame.Results[i].Body)
					}
				})
			}
			read(frame.Results[6].Body, func(r *wire.Reader) {
				got := readRelFreqPartial(r)
				want := ix.RelFreqMarginals("issue", dims("outcome=reservation")[0])
				if got.N != want.N || got.SubsetSize != want.SubsetSize || !sameList(got.Concepts, want.Concepts) {
					t.Errorf("relfreq partial %+v, direct %+v", got, want)
				}
				if re := appendRelFreqPartial(nil, got); !bytes.Equal(re, frame.Results[6].Body) {
					t.Errorf("relfreq partial re-encodes to %q, was %q", re, frame.Results[6].Body)
				}
				// Finalizing the decoded marginals reproduces the float endpoint.
				var rel RelFreqResponse
				getOK(t, base+"/v1/relfreq?"+url.Values(queries[6].Params).Encode(), &rel)
				if fin := mining.FinalizeRelFreq(got); !sameList(fin, rel.Rows) {
					t.Errorf("finalized relfreq partial %+v, endpoint %+v", fin, rel.Rows)
				}
			})
			read(frame.Results[7].Body, func(r *wire.Reader) {
				got := readAssocPartial(r)
				rows, cols := dims(rowLabels...), dims(colLabels...)
				if want := ix.AssocMarginals(rows, cols); !reflect.DeepEqual(got, want) {
					t.Errorf("assoc partial %+v, direct %+v", got, want)
				}
				if re := AppendAssocPartial(nil, got); !bytes.Equal(re, frame.Results[7].Body) {
					t.Errorf("assoc partial re-encodes to %q, was %q", re, frame.Results[7].Body)
				}
				// Finalizing the decoded marginals reproduces the monolithic
				// table at the query's confidence, which the partial is free of.
				if !reflect.DeepEqual(mining.FinalizeAssoc(rows, cols, 0.9, got), ix.AssociateN(rows, cols, 0.9, 1)) {
					t.Errorf("FinalizeAssoc(partial) diverges from direct AssociateN")
				}
			})
			for i, q := range map[int]struct {
				row, col string
				limit    int
			}{8: {"issue", "brand", 7}, 9: {"no-such[issue]", "brand", 50}} {
				read(frame.Results[i].Body, func(r *wire.Reader) {
					got := readDrillDownPartial(q.limit)(r)
					wantDocs, wantCount := ix.DrillDownLimit(dims(q.row)[0], dims(q.col)[0], q.limit)
					if got.count != wantCount || len(got.docs) != len(wantDocs) {
						t.Fatalf("drilldown partial: count %d with %d docs, direct %d with %d", got.count, len(got.docs), wantCount, len(wantDocs))
					}
					decoded := make([]mining.Document, len(got.docs))
					for k, d := range got.docs {
						rec := wire.NewReader(d.record)
						decoded[k] = store.ReadDocument(&rec)
						if err := rec.Done(); err != nil || string(d.id) != wantDocs[k].ID {
							t.Errorf("drilldown doc %d: %s %q (%v), direct %s", k, d.id, d.record, err, wantDocs[k].ID)
						}
					}
					if want := voctest.AsStored(wantDocs); !sameList(decoded, want) {
						t.Errorf("drilldown documents %+v, direct %+v", decoded, want)
					}
					if re := AppendDrillDownPartial(nil, got.count, decoded); !bytes.Equal(re, frame.Results[i].Body) {
						t.Errorf("drilldown partial re-encodes to %q, was %q", re, frame.Results[i].Body)
					}
				})
			}

			// A query that differs only in what finalizing reads shares the
			// partial: the association at another confidence is a cache hit.
			hitsBefore := s.hits.Load()
			other := BatchQuery{Endpoint: "associate", Params: url.Values{"row": rowLabels, "col": colLabels, "confidence": {"0.99"}}}
			if f := postShard(t, base, other); !bytes.Equal(f.Results[0].Body, frame.Results[7].Body) {
				t.Errorf("association partial at another confidence differs")
			}
			if got := s.hits.Load() - hitsBefore; got != 1 {
				t.Errorf("association partial at another confidence: %d cache hits, want 1", got)
			}
		})
	}
}

// TestShardRequestRejected: /v1/shard reads nothing but the canonical
// request frame — no JSON, no other version, one to MaxBatchQueries
// sub-queries, parameter names sorted and unique, not a byte missing or to
// spare, the body within maxShardRequestBytes — and answers anything else
// 400 naming what is wrong with it.
func TestShardRequestRejected(t *testing.T) {
	s := startServer(t, Config{Source: sliceSource(voctest.ParityDocs(20))})
	waitIngestDone(t, s)
	base := "http://" + s.Addr()

	// request spells a frame of one count query by hand, its names in the
	// order given.
	request := func(names ...string) []byte {
		b := wire.AppendBytes(wire.AppendInt([]byte{frameVersion}, 1), "count")
		return wire.AppendList(b, names, func(b []byte, name string) []byte {
			return wire.AppendList(wire.AppendBytes(b, name), []string{"parity=even"}, wire.AppendBytes[string])
		})
	}
	q := BatchQuery{Endpoint: "count", Params: url.Values{"dim": {"parity=even"}, "x": {"parity=even"}}}
	good := AppendShardRequest(nil, []BatchQuery{q})
	if !bytes.Equal(good, request("dim", "x")) {
		t.Fatalf("request frame %q, spelt by hand %q", good, request("dim", "x"))
	}
	over := make([]BatchQuery, MaxBatchQueries+1)
	for i := range over {
		over[i] = BatchQuery{Endpoint: "count"}
	}
	huge := AppendShardRequest(nil, []BatchQuery{{Endpoint: "count", Params: url.Values{"dim": {strings.Repeat("a", maxShardRequestBytes)}}}})
	for _, c := range []struct {
		name, ctype string
		body        []byte
		want        string
	}{
		{"json", "application/json", mustJSON(t, BatchRequest{Queries: []BatchQuery{q}}), `shard request is "application/json", not a application/x-bivoc-frame`},
		{"version", FrameContentType, append([]byte{frameVersion + 1}, good[1:]...), "decoding shard request: request version 2, want 1"},
		{"no queries", FrameContentType, []byte{frameVersion, 0}, "decoding shard request: request has no queries"},
		{"too many queries", FrameContentType, AppendShardRequest(nil, over), "decoding shard request: request has 1001 queries, limit is 1000"},
		{"unsorted names", FrameContentType, request("x", "dim"), `decoding shard request: query 0: parameter "dim" after "x": names not sorted and unique`},
		{"repeated names", FrameContentType, request("dim", "dim"), `decoding shard request: query 0: parameter "dim" after "dim": names not sorted and unique`},
		{"trailing bytes", FrameContentType, append(append([]byte{}, good...), 0), "decoding shard request: 1 trailing bytes"},
		{"truncated", FrameContentType, good[:len(good)-1], "decoding shard request: 11 elements announced at offset 30, 10 bytes left"},
		{"too large", FrameContentType, huge, "reading shard request: http: request body too large"},
	} {
		resp, body := postShardBody(t, base, c.ctype, c.body)
		var e ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil || resp.StatusCode != http.StatusBadRequest || e.Status != http.StatusBadRequest || !strings.HasPrefix(e.Error, c.want) {
			t.Errorf("%s: %d %s (%v), want 400 %q", c.name, resp.StatusCode, body, err, c.want)
		}
	}
	if res := postShard(t, base, q).Results[0]; res.Status != http.StatusOK {
		t.Errorf("the well-formed request: %d %s", res.Status, res.Body)
	}
}

package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"bivoc/internal/mining"
)

// The federation wire suite: the generation header every response must
// carry, the structured error bodies the coordinator relays, and the
// /v1/marginals/* endpoints it merges across shards.

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
	docs := testDocs(60)
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
		{"/v1/marginals/concepts?category=topic", 200},
		{"/v1/marginals/relfreq?category=topic&featured=" + dim, 200},
		{"/v1/marginals/assoc?row=" + row + "&col=" + dim, 200},
		{"/healthz", 200},
		{"/statsz", 200},
		{"/v1/count", 400},              // missing dim: parse error path
		{"/v1/count?dim=%5Bnope", 400},  // unparsable dimension
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

// TestErrorBodiesAreStructuredJSON pins the error-body satellite: every
// non-200 reply is {"error": "...", "status": N} with the HTTP status
// echoed in the body, so the coordinator can relay shard errors.
func TestErrorBodiesAreStructuredJSON(t *testing.T) {
	s := startServer(t, Config{Source: sliceSource(testDocs(20))})
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
		{"/v1/marginals/relfreq?category=topic", http.StatusBadRequest, "featured"},
		{"/v1/marginals/assoc?row=a%5Bb%5D", http.StatusBadRequest, "col"},
		{"/v1/marginals/concepts", http.StatusBadRequest, "category"},
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

// TestMarginalEndpointsMatchDirectIndex pins the shard-side federation
// wire against direct mining calls over the same corpus: the integer
// marginals on the wire are exactly what the merge helpers expect, and
// finalizing them reproduces the float endpoints.
func TestMarginalEndpointsMatchDirectIndex(t *testing.T) {
	docs := testDocs(90)
	ix := batchIndex(docs)
	s := startServer(t, Config{Source: sliceSource(docs)})
	waitIngestDone(t, s)
	base := "http://" + s.Addr()

	featured, err := mining.ParseDim("outcome=reservation")
	if err != nil {
		t.Fatal(err)
	}
	rowDims := make([]mining.Dim, 0, 2)
	for _, l := range []string{"billing[topic]", "coverage[topic]"} {
		d, err := mining.ParseDim(l)
		if err != nil {
			t.Fatal(err)
		}
		rowDims = append(rowDims, d)
	}
	colDims := []mining.Dim{featured}

	var cdf ConceptDFResponse
	getOK(t, base+"/v1/marginals/concepts?category=topic", &cdf)
	if want := ix.ConceptDF("topic"); !reflect.DeepEqual(cdf.Concepts, want) {
		t.Fatalf("wire ConceptDF = %#v, direct %#v", cdf.Concepts, want)
	}

	var rf RelFreqMarginalsResponse
	getOK(t, base+"/v1/marginals/relfreq?category=topic&featured="+url.QueryEscape("outcome=reservation"), &rf)
	if want := ix.RelFreqMarginals("topic", featured); !reflect.DeepEqual(rf.Marginals, want) {
		t.Fatalf("wire RelFreqMarginals = %#v, direct %#v", rf.Marginals, want)
	}
	// Finalizing the wire marginals reproduces the float endpoint.
	var rel RelFreqResponse
	getOK(t, base+"/v1/relfreq?category=topic&featured="+url.QueryEscape("outcome=reservation"), &rel)
	fin := mining.FinalizeRelFreq(rf.Marginals)
	if len(fin) != len(rel.Rows) {
		t.Fatalf("finalized relfreq has %d rows, endpoint %d", len(fin), len(rel.Rows))
	}
	for i, r := range fin {
		got := rel.Rows[i]
		if r.Concept != got.Concept || r.InSubset != got.InSubset || r.Ratio != got.Ratio {
			t.Fatalf("finalized row %d = %+v, endpoint %+v", i, r, got)
		}
	}

	var am AssocMarginalsResponse
	getOK(t, base+"/v1/marginals/assoc?row="+url.QueryEscape("billing[topic]")+
		"&row="+url.QueryEscape("coverage[topic]")+"&col="+url.QueryEscape("outcome=reservation"), &am)
	if want := ix.AssocMarginals(rowDims, colDims); !reflect.DeepEqual(am.Marginals, want) {
		t.Fatalf("wire AssocMarginals = %#v, direct %#v", am.Marginals, want)
	}
	// Finalizing the wire marginals reproduces the monolithic table.
	tbl := mining.FinalizeAssoc(rowDims, colDims, 0.95, am.Marginals)
	want := ix.AssociateN(rowDims, colDims, 0.95, 1)
	if !reflect.DeepEqual(tbl, want) {
		t.Fatalf("FinalizeAssoc(wire marginals) diverges from direct AssociateN")
	}
}

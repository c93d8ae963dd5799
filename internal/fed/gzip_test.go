package fed

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"bivoc/internal/mining"
	"bivoc/internal/server"
	"bivoc/internal/voctest"
)

// assoc2x2 is a two-rows × two-columns /v1/associate query: about 600
// bytes over the parity corpus, a body that fits one segment plain.
var assoc2x2 = url.Values{
	"row": {mining.ConceptDim("topic", "billing").Label(), mining.ConceptDim("topic", "coverage").Label()},
	"col": {mining.FieldDim("outcome", "reservation").Label(), mining.FieldDim("outcome", "unbooked").Label()},
}

// TestFedGzipNegotiation pins response compression on the coordinator:
// a gzip-accepting client gets a gzip body whose decompressed bytes are
// byte-identical to the plain response of the same query, a merged body
// under GzipMinSize is sent plain, and coordinator errors stay plain.
func TestFedGzipNegotiation(t *testing.T) {
	docs := voctest.ParityDocs(120)
	const shards = 2
	var servers []*server.Server
	for i := 0; i < shards; i++ {
		servers = append(servers, startShard(t, docs, i, shards, server.Config{Addr: "127.0.0.1:0"}))
	}
	waitIngestDone(t, servers...)
	c := startCoordinator(t, Config{Addr: "127.0.0.1:0", Shards: shardAddrs(servers)})
	base := "http://" + c.Addr()

	rawGet := func(rawurl, acceptEncoding string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest("GET", rawurl, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept-Encoding", acceptEncoding)
		resp, err := testClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	// A drill-down's ten documents are past GzipMinSize.
	big := "/v1/drilldown?" + url.Values{
		"row": {mining.ConceptDim("topic", "billing").Label()},
		"col": {mining.FieldDim("outcome", "reservation").Label()},
	}.Encode()

	plainResp, plain := rawGet(base+big, "identity")
	if plainResp.StatusCode != 200 || plainResp.Header.Get("Content-Encoding") != "" {
		t.Fatalf("identity request: status %d, Content-Encoding %q", plainResp.StatusCode, plainResp.Header.Get("Content-Encoding"))
	}
	if len(plain) < server.GzipMinSize {
		t.Fatalf("test body is %d bytes — too small to exercise compression", len(plain))
	}

	// The same query again, gzip-accepting: it scatters again (the shards
	// answer from their caches) and must negotiate gzip over the same
	// bytes.
	zResp, zBody := rawGet(base+big, "gzip")
	if zResp.Header.Get("Content-Encoding") != "gzip" {
		t.Fatalf("gzip request answered with Content-Encoding %q", zResp.Header.Get("Content-Encoding"))
	}
	zr, err := gzip.NewReader(bytes.NewReader(zBody))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plain) {
		t.Errorf("decompressed coordinator body drifted:\n gz    %s\n plain %s", got, plain)
	}

	// A merged mid-size body — past the old 256-byte threshold, under
	// GzipMinSize — is sent plain to a gzip client, and still varies on
	// Accept-Encoding.
	midResp, midBody := rawGet(base+"/v1/associate?"+assoc2x2.Encode(), "gzip")
	if midResp.Header.Get("Content-Encoding") != "" {
		t.Fatalf("a 2x2 associate merged body was %s-encoded", midResp.Header.Get("Content-Encoding"))
	}
	if len(midBody) < 256 || len(midBody) >= server.GzipMinSize {
		t.Fatalf("2x2 associate body is %d bytes, want 256 ≤ n < GzipMinSize for this case", len(midBody))
	}
	if !strings.Contains(strings.Join(midResp.Header.Values("Vary"), ","), "Accept-Encoding") {
		t.Error("mid-size merged response missing Vary: Accept-Encoding")
	}

	// Coordinator errors stay plain.
	errResp, _ := rawGet(base+"/v1/count?dim=nope%5Bmissing", "gzip")
	if errResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query answered %d", errResp.StatusCode)
	}
	if errResp.Header.Get("Content-Encoding") != "" {
		t.Errorf("coordinator error was %s-encoded", errResp.Header.Get("Content-Encoding"))
	}
}

// TestPlainResponseUnderGzipMinSizeFitsOneSegment holds GzipMinSize to
// the rule it is derived from, for the coordinator, whose head is the
// longer of the two daemons' by its per-shard generation and epoch
// vectors: over four shards, a 200 /v1 response whose plain body is one
// byte under the threshold, with its head at its longest
// (voctest.LongestHead), fits one 1460-byte TCP segment.
func TestPlainResponseUnderGzipMinSizeFitsOneSegment(t *testing.T) {
	docs := voctest.ParityDocs(120)
	const shards = 4
	var servers []*server.Server
	for i := 0; i < shards; i++ {
		servers = append(servers, startShard(t, docs, i, shards, server.Config{Addr: "127.0.0.1:0"}))
	}
	waitIngestDone(t, servers...)
	c := startCoordinator(t, Config{Addr: "127.0.0.1:0", Shards: shardAddrs(servers)})
	head, body := voctest.KeepAliveHead(t, c.Addr(), "/v1/associate?"+assoc2x2.Encode())
	if !bytes.HasPrefix(head, []byte("HTTP/1.1 200 ")) || len(body) >= server.GzipMinSize || bytes.Contains(head, []byte("Content-Encoding")) {
		t.Fatalf("want a plain 200 under GzipMinSize, got %d body bytes after %q", len(body), head)
	}
	if n := voctest.LongestHead(t, head, server.GzipMinSize-1, server.EpochHeader); n+server.GzipMinSize-1 > 1460 {
		t.Errorf("a %d-byte head and a %d-byte body make %d bytes, past one 1460-byte segment:\n%s", n, server.GzipMinSize-1, n+server.GzipMinSize-1, head)
	}
}

package fed

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"net/url"
	"testing"

	"bivoc/internal/mining"
	"bivoc/internal/server"
	"bivoc/internal/voctest"
)

// TestFedGzipNegotiation pins response compression on the coordinator:
// a gzip-accepting client gets a gzip body whose decompressed bytes are
// byte-identical to the plain response of the same query, and
// coordinator errors stay plain.
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

	big := "/v1/associate?" + url.Values{
		"row": {mining.ConceptDim("topic", "billing").Label(), mining.ConceptDim("topic", "coverage").Label()},
		"col": {mining.FieldDim("outcome", "reservation").Label(), mining.FieldDim("outcome", "unbooked").Label()},
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

	// Coordinator errors stay plain.
	errResp, _ := rawGet(base+"/v1/count?dim=nope%5Bmissing", "gzip")
	if errResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query answered %d", errResp.StatusCode)
	}
	if errResp.Header.Get("Content-Encoding") != "" {
		t.Errorf("coordinator error was %s-encoded", errResp.Header.Get("Content-Encoding"))
	}
}

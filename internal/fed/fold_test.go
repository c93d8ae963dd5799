package fed

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"bivoc/internal/server"
	"bivoc/internal/voctest"
)

// serveFrame answers a /v1/shard request with the frame.
func serveFrame(w http.ResponseWriter, f server.ShardFrame) {
	w.Header().Set(server.GenerationHeader, strconv.FormatUint(f.Generation, 10))
	w.Header().Set("Content-Type", server.FrameContentType)
	w.Write(f.Append(nil))
}

// uniformFrame is a sealed frame answering every query alike.
func uniformFrame(gen uint64, queries []server.BatchQuery, status int, body []byte) server.ShardFrame {
	frame := server.ShardFrame{Generation: gen, Sealed: true}
	for range queries {
		frame.Results = append(frame.Results, server.ShardResult{Status: status, Body: body})
	}
	return frame
}

// shardQueries decodes the request frame a coordinator sent to /v1/shard.
func shardQueries(t *testing.T, r *http.Request) []server.BatchQuery {
	t.Helper()
	body, err := io.ReadAll(r.Body)
	if err == nil {
		var queries []server.BatchQuery
		if queries, err = server.ReadShardRequest(body); err == nil && r.Method == http.MethodPost && r.URL.Path == "/v1/shard" &&
			r.Header.Get("Content-Type") == server.FrameContentType {
			return queries
		}
	}
	t.Errorf("fake shard: %s %s (%s): %v", r.Method, r.URL.Path, r.Header.Get("Content-Type"), err)
	return nil
}

// stubShard answers every /v1/shard request the same way: with
// frameStatus and, when that is 200, a frame at generation gen holding
// one sub-result of status and body per sub-query; any other frameStatus
// is sent with body (plus the newline a daemon ends a JSON body with). It
// serves nothing else.
func stubShard(t *testing.T, gen uint64, status, frameStatus int, body string) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/shard" {
			http.NotFound(w, r)
			return
		}
		queries := shardQueries(t, r)
		if frameStatus != http.StatusOK {
			w.Header().Set(server.GenerationHeader, strconv.FormatUint(gen, 10))
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(frameStatus)
			io.WriteString(w, body+"\n")
			return
		}
		serveFrame(w, uniformFrame(gen, queries, status, []byte(body)))
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestFedGetAndBatchShareOneFold: whatever the shards reply, a GET and
// the same query as a batch sub-query come out of the same fold — same
// status, same body (the envelope drops the trailing newline), same
// generation vector.
func TestFedGetAndBatchShareOneFold(t *testing.T) {
	const k = 3
	docs := voctest.ParityDocs(90)
	live := startShard(t, docs, 0, k, server.Config{})
	waitIngestDone(t, live)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()
	const failing = `{"error":"wedged","status":500}`
	const rejected = `{"error":"no such dimension","status":400}`

	missingOneAndTwo := func(body []byte) bool {
		var fb fedBody
		return json.Unmarshal(body, &fb) == nil && fb.Degraded && len(fb.MissingShards) == 2 &&
			fb.MissingShards[0] == 1 && fb.MissingShards[1] == 2
	}
	params := url.Values{"dim": {"parity=even", "topic"}}
	for _, tc := range []struct {
		name       string
		shards     []string
		wantStatus int
		wantVec    string
		wantBody   func(body []byte) bool
	}{
		{
			name:       "one shard down, one answering 500",
			shards:     []string{"http://" + live.Addr(), dead, stubShard(t, 9, 500, 500, failing)},
			wantStatus: http.StatusOK,
			wantVec:    "1,-,-",
			wantBody:   missingOneAndTwo,
		},
		{
			// The frame is sound, so its generation is known; the query's
			// result in it is a 5xx, so the shard is missing for the query.
			name:       "one shard down, one failing the query inside its frame",
			shards:     []string{"http://" + live.Addr(), dead, stubShard(t, 9, 500, 200, failing)},
			wantStatus: http.StatusOK,
			wantVec:    "1,-,9",
			wantBody:   missingOneAndTwo,
		},
		{
			name: "every shard rejects the query",
			shards: []string{
				stubShard(t, 7, 400, 200, rejected),
				stubShard(t, 7, 400, 200, `{"error":"second shard's wording","status":400}`),
				stubShard(t, 7, 400, 200, rejected),
			},
			wantStatus: http.StatusBadRequest,
			wantVec:    "7,7,7",
			wantBody:   func(body []byte) bool { return string(body) == rejected+"\n" }, // the first shard's, verbatim
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coord := startCoordinator(t, Config{Shards: tc.shards})
			fedBase := "http://" + coord.Addr()
			status, hdr, body := get(t, fedBase+"/v1/count?"+params.Encode())
			if status != tc.wantStatus || hdr.Get(server.GenerationHeader) != tc.wantVec || !tc.wantBody(body) {
				t.Fatalf("GET: status %d, vector %q, body %s", status, hdr.Get(server.GenerationHeader), body)
			}
			bstatus, bhdr, bbody := postFedBatch(t, fedBase, server.BatchRequest{Queries: []server.BatchQuery{{Endpoint: "count", Params: params}}})
			var env server.BatchResponse
			if err := json.Unmarshal(bbody, &env); err != nil || bstatus != http.StatusOK || len(env.Results) != 1 {
				t.Fatalf("batch: status %d, body %s (%v)", bstatus, bbody, err)
			}
			if got := bhdr.Get(server.GenerationHeader); got != hdr.Get(server.GenerationHeader) {
				t.Errorf("batch vector %q, GET vector %q", got, hdr.Get(server.GenerationHeader))
			}
			if sub := env.Results[0]; sub.Status != status || !bytes.Equal(append(sub.Body, '\n'), body) {
				t.Errorf("batch sub-result = %d %s\nGET             = %d %s", sub.Status, sub.Body, status, body)
			}
		})
	}
}

// TestCoordinatorLifecycle: the coordinator's Start, Addr and Shutdown
// are the shared listener's, under its own name.
func TestCoordinatorLifecycle(t *testing.T) {
	c, err := NewCoordinator(Config{Shards: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Addr() != "" {
		t.Errorf("Addr before Start = %q", c.Addr())
	}
	if err := c.Shutdown(context.Background()); err == nil || err.Error() != "fed: Shutdown before Start" {
		t.Errorf("Shutdown before Start: %v", err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err == nil || err.Error() != "fed: Start called twice" {
		t.Errorf("second Start: %v", err)
	}
	if !strings.HasPrefix(c.Addr(), "127.0.0.1:") {
		t.Errorf("Addr = %q", c.Addr())
	}
	if err := c.Shutdown(context.Background()); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

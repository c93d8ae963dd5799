package server

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"testing"

	"bivoc/internal/mining"
	"bivoc/internal/voctest"
)

func TestAcceptsGzip(t *testing.T) {
	cases := []struct {
		header string
		want   bool
	}{
		{"", false},
		{"identity", false},
		{"gzip", true},
		{"GZIP", true},
		{"gzip, deflate, br", true},
		{"deflate, gzip;q=1.0", true},
		{"br;q=1.0, gzip;q=0.5", true},
		{"gzip;q=0", false},
		{"gzip;q=0.0, identity", false},
		{"gzip ; q=0", false},
		{"deflate", false},
		{"gzipx", false},
	}
	for _, c := range cases {
		r, _ := http.NewRequest("GET", "/", nil)
		if c.header != "" {
			r.Header.Set("Accept-Encoding", c.header)
		}
		if got := AcceptsGzip(r); got != c.want {
			t.Errorf("AcceptsGzip(%q) = %v, want %v", c.header, got, c.want)
		}
	}
}

// rawGet fetches rawurl with an explicit Accept-Encoding header;
// setting the header by hand disables net/http's transparent
// decompression, so the body comes back exactly as sent on the wire.
func rawGet(t *testing.T, rawurl, acceptEncoding string) (*http.Response, []byte) {
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

func gunzip(t *testing.T, data []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("gzip header: %v", err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gunzip: %v", err)
	}
	return out
}

// TestGzipNegotiation pins the response-compression contract: a
// gzip-accepting client gets a gzip body whose decompressed bytes are
// identical to the plain response, small bodies and errors stay plain,
// and every /v1 response varies on Accept-Encoding.
func TestGzipNegotiation(t *testing.T) {
	s := startServer(t, Config{Source: sliceSource(voctest.ParityDocs(120))})
	waitIngestDone(t, s)
	base := "http://" + s.Addr()

	// /v1/associate over two rows × two cols is far past GzipMinSize.
	big := "/v1/associate?" + url.Values{
		"row": {mining.ConceptDim("topic", "billing").Label(), mining.ConceptDim("topic", "coverage").Label()},
		"col": {mining.FieldDim("outcome", "reservation").Label(), mining.FieldDim("outcome", "unbooked").Label()},
	}.Encode()

	plainResp, plain := rawGet(t, base+big, "identity")
	if plainResp.Header.Get("Content-Encoding") != "" {
		t.Fatalf("identity request got Content-Encoding %q", plainResp.Header.Get("Content-Encoding"))
	}
	if len(plain) < GzipMinSize {
		t.Fatalf("test body is %d bytes — too small to exercise compression", len(plain))
	}
	if !strings.Contains(strings.Join(plainResp.Header.Values("Vary"), ","), "Accept-Encoding") {
		t.Error("plain response missing Vary: Accept-Encoding")
	}

	zResp, zBody := rawGet(t, base+big, "gzip")
	if zResp.Header.Get("Content-Encoding") != "gzip" {
		t.Fatalf("gzip request answered with Content-Encoding %q", zResp.Header.Get("Content-Encoding"))
	}
	if len(zBody) >= len(plain) {
		t.Errorf("gzip body is %d bytes, plain is %d — compression did not shrink it", len(zBody), len(plain))
	}
	if got := gunzip(t, zBody); !bytes.Equal(got, plain) {
		t.Errorf("decompressed gzip body drifted from the plain body:\n gz   %s\n plain %s", got, plain)
	}

	// Replay through the snapshot cache: same wire bytes both times.
	_, zBody2 := rawGet(t, base+big, "gzip")
	if !bytes.Equal(zBody, zBody2) {
		t.Error("cached gzip replay served different bytes")
	}

	// A body under GzipMinSize stays plain even for a gzip client.
	small := "/v1/count?dim=" + url.QueryEscape(mining.ConceptDim("topic", "billing").Label())
	smResp, smBody := rawGet(t, base+small, "gzip")
	if len(smBody) >= GzipMinSize {
		t.Fatalf("count body is %d bytes, expected under GzipMinSize for this case", len(smBody))
	}
	if smResp.Header.Get("Content-Encoding") != "" {
		t.Errorf("sub-threshold body was %s-encoded", smResp.Header.Get("Content-Encoding"))
	}
	var count CountResponse
	if err := json.Unmarshal(smBody, &count); err != nil {
		t.Errorf("sub-threshold body is not plain JSON: %v", err)
	}

	// Errors are never compressed.
	errResp, errBody := rawGet(t, base+"/v1/count?dim=nope%5Bmissing", "gzip")
	if errResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query answered %d", errResp.StatusCode)
	}
	if errResp.Header.Get("Content-Encoding") != "" {
		t.Errorf("error response was %s-encoded", errResp.Header.Get("Content-Encoding"))
	}
	var er ErrorResponse
	if err := json.Unmarshal(errBody, &er); err != nil || er.Status != http.StatusBadRequest {
		t.Errorf("error body not plain structured JSON: %v / %+v", err, er)
	}

	// A gzip;q=0 client explicitly refuses gzip.
	refResp, refBody := rawGet(t, base+big, "gzip;q=0")
	if refResp.Header.Get("Content-Encoding") != "" {
		t.Errorf("gzip;q=0 request got Content-Encoding %q", refResp.Header.Get("Content-Encoding"))
	}
	if !bytes.Equal(refBody, plain) {
		t.Error("gzip;q=0 body drifted from the plain body")
	}
}

// TestMarshalBodyAllocs pins both halves of the pooled-marshal
// contract: marshalBody renders exactly append(json.Marshal(v), '\n'),
// and steady-state it allocates no more than the bare json.Marshal
// baseline (the pool absorbs the working buffer).
func TestMarshalBodyAllocs(t *testing.T) {
	v := CountResponse{
		Generation: 7,
		Sealed:     true,
		Total:      120,
		Dims:       []string{"topic:billing", "outcome=ok"},
		Counts:     []int{42, 9},
	}
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	got, err := marshalBody(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("marshalBody drifted from append(json.Marshal, '\\n'):\n got  %q\n want %q", got, want)
	}

	baseline := testing.AllocsPerRun(200, func() {
		b, _ := json.Marshal(v)
		_ = append(b, '\n')
	})
	pooled := testing.AllocsPerRun(200, func() {
		marshalBody(v)
	})
	if pooled > baseline {
		t.Errorf("marshalBody allocates %.1f objects/op, json.Marshal+append baseline is %.1f", pooled, baseline)
	}
}

// twoKB is a 2 KB body of the repetitive JSON a table response is.
func twoKB(t *testing.T) []byte {
	plain := bytes.Repeat([]byte(`{"ncell":12,"nver":340,"nhor":95,"n":1500,"point_index":1.31,"lower_index":0.87,"row_share":0.25},`), 21)
	if len(plain) < 2000 || len(plain) > 2200 {
		t.Fatalf("test body is %d bytes, want about 2 KB", len(plain))
	}
	return plain
}

// TestGzipWritersAreBestSpeed pins the level: a parked writer's output is
// byte for byte what a fresh BestSpeed writer makes of the same body, and
// it gunzips to the body.
func TestGzipWritersAreBestSpeed(t *testing.T) {
	plain := twoKB(t)
	var want bytes.Buffer
	zw, err := gzip.NewWriterLevel(&want, gzip.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	zw.Write(plain)
	zw.Close()
	for i := 0; i < 2; i++ { // a fresh writer, then (if the first was built) a reset one
		gz := (&CachedBody{Plain: plain}).Gzip()
		if !bytes.Equal(gz, want.Bytes()) {
			t.Fatalf("CachedBody.Gzip is %d bytes, a BestSpeed writer makes %d of the same body", len(gz), want.Len())
		}
		if !bytes.Equal(gunzip(t, gz), plain) {
			t.Fatal("the gzip form does not decompress to the plain body")
		}
	}
}

// TestIncompressibleBodyHasNoGzipForm pins what a body that does not
// shrink costs: Gzip says so (nil), the entry holds the plain bytes only,
// and a gzip-accepting client is sent them identity-encoded.
func TestIncompressibleBodyHasNoGzipForm(t *testing.T) {
	plain := make([]byte, GzipMinSize)
	rand.New(rand.NewSource(26)).Read(plain)
	cb := &CachedBody{Plain: plain}
	if gz := cb.Gzip(); gz != nil {
		t.Fatalf("%d random bytes have a %d-byte gzip form, want none", len(plain), len(gz))
	}
	r := httptest.NewRequest("GET", "/v1/count", nil)
	r.Header.Set("Accept-Encoding", "gzip")
	for i := 0; i < 2; i++ { // the miss that compresses, then a hit
		w := httptest.NewRecorder()
		WriteJSONBody(w, r, http.StatusOK, cb)
		if enc := w.Header().Get("Content-Encoding"); enc != "" {
			t.Fatalf("an incompressible body was sent %s-encoded", enc)
		}
		if !bytes.Equal(w.Body.Bytes(), plain) {
			t.Fatal("an incompressible body was not sent as its plain bytes")
		}
	}
	if cb.gz != nil {
		t.Errorf("the entry holds a %d-byte gzip copy beside the plain body", len(cb.gz))
	}
}

// TestGzipAllocs pins the allocate-once half of the compression
// contract, next to the marshal one above. A BestSpeed flate compressor
// is 1.2 MB of state; compressing through a parked one must cost a body
// no more than its scratch and its compressed copy, bodies compressed one
// after another must share one writer, and however many are compressed at
// once no more writers are built than there are processors.
func TestGzipAllocs(t *testing.T) {
	plain := twoKB(t)
	compress := func() {
		cb := &CachedBody{Plain: plain}
		if gz := cb.Gzip(); len(gz) == 0 || len(gz) >= len(plain) {
			t.Errorf("2 KB of repetitive JSON compressed to %d bytes", len(gz))
		}
	}
	compress() // builds a writer unless an earlier test has
	if got := gunzip(t, (&CachedBody{Plain: plain}).Gzip()); !bytes.Equal(got, plain) {
		t.Fatal("a reused writer's output does not decompress to the plain body")
	}

	const calls = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		compress()
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall >= 16<<10 {
		t.Errorf("CachedBody.Gzip allocates %d bytes per 2 KB body, want under 16 KB (a fresh deflate state is about 1.2 MB)", perCall)
	}

	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			compress()
		}()
	}
	wg.Wait()
	built := int(gzipBuilt.Load())
	if len(gzipWriters) != built {
		t.Fatalf("%d of %d writers came back after 64 concurrent calls", len(gzipWriters), built)
	}
	if built < 1 || built > runtime.GOMAXPROCS(0) {
		t.Errorf("the free list holds %d writers after 64 concurrent calls, want 1..GOMAXPROCS (%d)", built, runtime.GOMAXPROCS(0))
	}
}

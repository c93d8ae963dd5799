package server

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Response-body encoding. Every /v1 body is marshaled exactly once into
// its canonical plain bytes (marshalBody, pooled scratch) and wrapped in
// a CachedBody; the gzip form is derived lazily from those bytes and
// memoized, so a cached response compresses once no matter how many
// gzip-accepting clients replay it — and a deflate state is allocated
// at most once per processor, not once per body: the writers are parked
// between bodies (gzipWriters). Bodies compress at gzip.BestSpeed, in
// both daemons (the coordinator encodes through CachedBody too).
// Decompressing a gzip response always yields the exact plain bytes —
// compression is an encoding of the response, never a different
// response — which is what lets the byte-identity suites compare daemons
// whatever each client negotiated.

// GzipMinSize is the smallest plain body worth compressing: below it
// the gzip envelope (header + CRC trailer) eats the savings and the
// response is sent identity-encoded even to gzip-accepting clients.
const GzipMinSize = 256

// CachedBody is one marshaled response body in both encodings: the
// canonical plain bytes and, lazily, their gzip form — or the finding
// that it has none worth sending. The snapshot LRU stores these, so a
// cache hit reuses whichever encodings have already been paid for.
// Exported because the federation coordinator writes its merged bodies
// through the same WriteJSONBody.
type CachedBody struct {
	Plain []byte

	once sync.Once
	gz   []byte
}

// gzipWriters parks the process's deflate states between bodies; at most
// GOMAXPROCS are ever built (gzipBuilt). A BestSpeed flate compressor is
// 1.2 MB of state (the hash chains of the other levels are inline in it,
// beside the fast encoder's own table and window), so allocating one per
// body — every cache miss of 256 bytes or more — would be most of a
// miss's allocation and feed the collector accordingly. The set is fixed
// rather than a sync.Pool so that what it holds is bounded and does not
// depend on when the last collection ran.
//
// BestSpeed because of what a reset costs: a writer at any other level
// clears 640 KB of hash chains before every body, which was over a third
// of the gzip time on the query miss path, where bodies are a few KB. Its
// output is about 7% larger.
var (
	gzipWriters = make(chan *gzip.Writer, runtime.GOMAXPROCS(0))
	gzipBuilt   atomic.Int32
)

// takeGzipWriter returns a parked writer if there is one, so the process
// holds as many as bodies have ever compressed at once and no more;
// builds one while fewer than GOMAXPROCS exist; and otherwise waits for
// one to come back — compression is pure computation, so with a writer
// per processor the wait never idles one. The caller Resets the writer
// onto its destination and sends it back to gzipWriters when done.
func takeGzipWriter() *gzip.Writer {
	select {
	case zw := <-gzipWriters:
		return zw
	default:
	}
	if int(gzipBuilt.Add(1)) <= cap(gzipWriters) {
		zw, _ := gzip.NewWriterLevel(nil, gzip.BestSpeed) // a valid level cannot fail
		return zw
	}
	gzipBuilt.Add(-1)
	return <-gzipWriters
}

// Gzip returns the gzip encoding of Plain, or nil when that encoding is
// not smaller than Plain: then the body is always sent plain, and the
// entry keeps no second copy. It compresses on the first call and
// memoizes the result (safe for concurrent use).
func (cb *CachedBody) Gzip() []byte {
	cb.once.Do(func() {
		buf := bodyScratch.Get().(*bytes.Buffer)
		defer bodyScratch.Put(buf)
		buf.Reset()
		zw := takeGzipWriter()
		defer func() { gzipWriters <- zw }()
		zw.Reset(buf)
		zw.Write(cb.Plain) // writes to a bytes.Buffer cannot fail
		zw.Close()
		if buf.Len() < len(cb.Plain) {
			cb.gz = append([]byte(nil), buf.Bytes()...)
		}
	})
	return cb.gz
}

// AcceptsGzip reports whether the request negotiates gzip response
// encoding: an Accept-Encoding listing gzip (any case) with a nonzero
// quality. Exported because the federation coordinator negotiates its
// own responses with the same rule.
func AcceptsGzip(r *http.Request) bool {
	for _, field := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		name, params, hasQ := strings.Cut(strings.TrimSpace(field), ";")
		if !strings.EqualFold(strings.TrimSpace(name), "gzip") {
			continue
		}
		if !hasQ {
			return true
		}
		for _, p := range strings.Split(params, ";") {
			k, v, _ := strings.Cut(strings.TrimSpace(p), "=")
			if strings.TrimSpace(k) != "q" {
				continue
			}
			q, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return err != nil || q > 0
		}
		return true
	}
	return false
}

// WriteJSONBody writes cb in the encoding the request negotiated:
// gzip when the client accepts it and the body clears GzipMinSize (and
// actually shrinks: Gzip is nil otherwise), the plain bytes otherwise.
// Vary: Accept-Encoding is always set so shared caches never serve one
// client's encoding to another. A nil request writes plain.
func WriteJSONBody(w http.ResponseWriter, r *http.Request, status int, cb *CachedBody) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Add("Vary", "Accept-Encoding")
	if r != nil && len(cb.Plain) >= GzipMinSize && AcceptsGzip(r) {
		if gz := cb.Gzip(); gz != nil {
			h.Set("Content-Encoding", "gzip")
			w.WriteHeader(status)
			w.Write(gz)
			return
		}
	}
	w.WriteHeader(status)
	w.Write(cb.Plain)
}

// bodyScratch pools the marshal and compress working buffers so a cache
// miss does not allocate a fresh growth-sized buffer per response.
var bodyScratch = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// marshalBody renders v in the canonical response framing — exactly
// append(json.Marshal(v), '\n'), which is what json.Encoder emits — but
// through a pooled working buffer, so the only allocation that survives
// the call is the exact-size body copy. A drill-down body appends itself
// into that buffer (drillDownBody.appendJSON).
func marshalBody(v any) ([]byte, error) {
	buf := bodyScratch.Get().(*bytes.Buffer)
	defer bodyScratch.Put(buf)
	buf.Reset()
	if d, ok := v.(drillDownBody); ok {
		buf.Write(d.appendJSON(buf.AvailableBuffer())) // keeps for the pool whatever it grew past the buffer
		buf.WriteByte('\n')
	} else if err := json.NewEncoder(buf).Encode(v); err != nil {
		return nil, err
	}
	return append([]byte(nil), buf.Bytes()...), nil
}

// spliceList renders a response whose one list is already encoded. shell
// is the response marshalled with that list empty ("field":[]); elem
// appends the i-th of the list's n elements, at most size bytes in all.
// The result — allocated once, newline-terminated like every body — is what
// marshalling the response with the list filled in would have produced.
// Only fields that hold no strings may follow the list (FedStatus does),
// so the last occurrence of the empty list is the list.
func spliceList(shell []byte, field string, n, size int, elem func(b []byte, i int) []byte) []byte {
	at := bytes.LastIndex(shell, []byte(`"`+field+`":[]`)) + len(field) + 4
	b := append(make([]byte, 0, len(shell)+size+max(n-1, 0)+1), shell[:at]...)
	for i := range n {
		if i > 0 {
			b = append(b, ',')
		}
		b = elem(b, i)
	}
	return append(append(b, shell[at:]...), '\n')
}

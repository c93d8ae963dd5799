package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// POST /v1/shard — the exchange between daemons. A coordinator sends the
// JSON BatchRequest a client could have sent (the sub-queries as the
// client named them, marshalled once for the whole fleet) and every
// bivocd answers with one frame computed from one snapshot:
//
//	byte     version (1)
//	uvarint  generation
//	byte     sealed (0 | 1)
//	uvarint  n, the request's sub-query count (at most MaxBatchQueries)
//	n times  uvarint status, uvarint length, length bytes
//
// A 200 sub-result carries the plan's partial — the integers and already
// encoded documents this daemon holds of the answer (partials.go) — and
// any other status the ErrorBody its GET route would have sent. Nothing
// in a frame is delimited by a newline, so nothing on this path may trim
// or append one. It is not a public API: a fleet is deployed from one
// build, so a reply that is not a version-1 frame is an error, never a
// cue to fall back to another form.

// FrameContentType marks a /v1/shard reply.
const FrameContentType = "application/x-bivoc-frame"

const frameVersion = 1

// ShardResult is one sub-query's outcome inside a frame.
type ShardResult struct {
	Status int
	Body   []byte
}

// ShardFrame is a decoded /v1/shard reply.
type ShardFrame struct {
	Generation uint64
	Sealed     bool
	Results    []ShardResult
}

// Append appends the frame's encoding to b.
func (f ShardFrame) Append(b []byte) []byte {
	sealed := 0
	if f.Sealed {
		sealed = 1
	}
	b = appendInt(binary.AppendUvarint(append(b, frameVersion), f.Generation), sealed)
	return appendList(b, f.Results, func(b []byte, res ShardResult) []byte {
		return appendBytes(appendInt(b, res.Status), res.Body)
	})
}

// ReadShardFrame decodes a /v1/shard reply in place: the results' bodies
// alias b, so whatever outlives b must be copied out of them. Every count
// is checked against the bytes that remain before anything is allocated.
func ReadShardFrame(b []byte) (ShardFrame, error) {
	r := frameReader{b: b}
	if v := r.uvarint(); r.err == nil && v != frameVersion {
		r.fail(fmt.Sprintf("frame version %d, want %d", v, frameVersion))
	}
	f := ShardFrame{Generation: r.uvarint()}
	sealed := r.uvarint()
	if sealed > 1 {
		r.fail(fmt.Sprintf("sealed flag %d", sealed))
	}
	f.Sealed = sealed == 1
	f.Results = readList(&r, 2, func(r *frameReader) ShardResult {
		return ShardResult{Status: r.int(), Body: r.bytes()}
	})
	if len(f.Results) > MaxBatchQueries {
		r.fail(fmt.Sprintf("%d results, limit is %d", len(f.Results), MaxBatchQueries))
	}
	return f, r.done()
}

// frameReader decodes the varints and length-prefixed byte strings that
// frames and partials are made of. The first failure sticks: every later
// read returns a zero value, and done reports it.
type frameReader struct {
	b   []byte
	err error
}

func (r *frameReader) fail(msg string) {
	if r.err == nil {
		r.err = errors.New(msg)
	}
	r.b = nil
}

// done is the decode's verdict: the first failure, or an error when bytes
// are left over.
func (r *frameReader) done() error {
	if r.err == nil && len(r.b) > 0 {
		r.fail(fmt.Sprintf("%d trailing bytes", len(r.b)))
	}
	return r.err
}

// uvarint reads one minimally encoded uvarint, so that a value has one
// encoding and whatever decodes re-encodes to the same bytes.
func (r *frameReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.fail("truncated")
		return 0
	case n < 0 || (n > 1 && r.b[n-1] == 0):
		r.fail("malformed varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// int reads a non-negative count.
func (r *frameReader) int() int {
	v := r.uvarint()
	if v > math.MaxInt {
		r.fail("integer overflow")
		return 0
	}
	return int(v)
}

// signed reads a zigzag-encoded integer (a trend's time bucket is the one
// field that may be negative).
func (r *frameReader) signed() int {
	v := r.uvarint()
	return int(v>>1) ^ -int(v&1)
}

// count reads the announced number of elements that follow, each at least
// size bytes long, and refuses one the remaining bytes cannot hold — before
// the caller allocates for it.
func (r *frameReader) count(size int) int {
	n := r.int()
	if n > len(r.b)/size {
		r.fail(fmt.Sprintf("%d elements announced, %d bytes left", n, len(r.b)))
		return 0
	}
	return n
}

// bytes reads a length-prefixed byte string, aliasing the input.
func (r *frameReader) bytes() []byte {
	n := r.count(1)
	s := r.b[:n:n]
	r.b = r.b[n:]
	return s
}

func (r *frameReader) string() string { return string(r.bytes()) }

// readList reads a list led by its length, each element at least size
// bytes long.
func readList[T any](r *frameReader, size int, elem func(*frameReader) T) []T {
	list := make([]T, r.count(size))
	for i := range list {
		list[i] = elem(r)
	}
	return list
}

func (r *frameReader) ints() []int { return readList(r, 1, (*frameReader).int) }

func appendInt(b []byte, v int) []byte { return binary.AppendUvarint(b, uint64(v)) }

func appendSigned(b []byte, v int) []byte { return binary.AppendUvarint(b, uint64(v<<1^v>>63)) }

func appendBytes[S ~string | ~[]byte](b []byte, s S) []byte {
	return append(appendInt(b, len(s)), s...)
}

func appendList[T any](b []byte, list []T, elem func([]byte, T) []byte) []byte {
	b = appendInt(b, len(list))
	for _, e := range list {
		b = elem(b, e)
	}
	return b
}

func appendInts(b []byte, vs []int) []byte { return appendList(b, vs, appendInt) }

// handleShard answers POST /v1/shard: every sub-query is planned from the
// endpoint table like a /v1/batch sub-query, but a planned one is answered
// with its partial, cached in the snapshot LRU under the plan's partial
// key, and the reply is one frame.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	if s.handlerDelay > 0 {
		time.Sleep(s.handlerDelay)
	}
	req, err := DecodeBatch(w, r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	sn := s.snap.Load()
	results := make([]ShardResult, len(req.Queries))
	size := 2 * binary.MaxVarintLen64
	for i, bq := range req.Queries {
		results[i] = s.runShardQuery(sn, bq)
		size += len(results[i].Body) + 2*binary.MaxVarintLen32
	}
	frame := ShardFrame{Generation: sn.gen, Sealed: sn.sealed, Results: results}.Append(make([]byte, 0, size))
	h := w.Header()
	h.Set(GenerationHeader, strconv.FormatUint(sn.gen, 10))
	h.Set("Content-Type", FrameContentType)
	h.Set("Content-Length", strconv.Itoa(len(frame)))
	w.Write(frame)
}

// runShardQuery answers one /v1/shard sub-query from sn.
func (s *Server) runShardQuery(sn *snapshot, bq BatchQuery) ShardResult {
	p, err := s.eps.Plan(bq.Endpoint, url.Values(bq.Params))
	if err != nil {
		return ShardResult{Status: http.StatusBadRequest, Body: ErrorBody(http.StatusBadRequest, err, FedStatus{})}
	}
	cb, status, err := s.answer(sn, p.partialKey(), p.partialFrom)
	if err != nil {
		return ShardResult{Status: status, Body: ErrorBody(status, err, FedStatus{})}
	}
	return ShardResult{Status: status, Body: cb.Plain}
}

package server

import (
	"net/http"
	"net/url"
	"strconv"
	"time"

	"bivoc/internal/wire"
)

// POST /v1/shard — the exchange between daemons. A coordinator sends the
// JSON BatchRequest a client could have sent (the sub-queries as the
// client named them, marshalled once for the whole fleet) and every
// bivocd answers with one frame computed from one snapshot, in
// internal/wire's encodings:
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
	b = wire.AppendInt(wire.AppendUvarint(append(b, frameVersion), f.Generation), sealed)
	return wire.AppendList(b, f.Results, func(b []byte, res ShardResult) []byte {
		return wire.AppendBytes(wire.AppendInt(b, res.Status), res.Body)
	})
}

// ReadShardFrame decodes a /v1/shard reply in place: the results' bodies
// alias b, so whatever outlives b must be copied out of them. Every count
// is checked against the bytes that remain before anything is allocated.
func ReadShardFrame(b []byte) (ShardFrame, error) {
	r := wire.NewReader(b)
	if v := r.Uvarint(); r.Err() == nil && v != frameVersion {
		r.Failf("frame version %d, want %d", v, frameVersion)
	}
	f := ShardFrame{Generation: r.Uvarint()}
	sealed := r.Uvarint()
	if sealed > 1 {
		r.Failf("sealed flag %d", sealed)
	}
	f.Sealed = sealed == 1
	f.Results = wire.List(&r, 2, func(r *wire.Reader) ShardResult {
		return ShardResult{Status: r.Int(), Body: r.Bytes()}
	})
	if len(f.Results) > MaxBatchQueries {
		r.Failf("%d results, limit is %d", len(f.Results), MaxBatchQueries)
	}
	return f, r.Done()
}

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
	size := 2 * wire.MaxVarintLen
	for i, bq := range req.Queries {
		results[i] = s.runShardQuery(sn, bq)
		size += len(results[i].Body) + wire.MaxVarintLen
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

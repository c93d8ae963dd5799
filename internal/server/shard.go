package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"

	"bivoc/internal/wire"
)

// POST /v1/shard — the exchange between daemons, a frame each way in
// internal/wire's encodings. A coordinator sends the sub-queries it has
// planned, as the client named them, encoded once for the whole fleet (a
// GET is a batch of one):
//
//	byte     version (1)
//	uvarint  n, the sub-query count (1 to MaxBatchQueries)
//	n times  endpoint, then a list of (name, list of values), the
//	         names sorted and unique
//
// and every bivocd answers with one frame computed from one snapshot:
//
//	byte     version (1)
//	uvarint  generation
//	byte     sealed (0 | 1)
//	uvarint  n, the request's sub-query count
//	n times  uvarint status, uvarint length, length bytes
//
// A 200 sub-result carries the plan's partial — the integers and
// document records this daemon holds of the answer (partials.go) — and
// any other status the ErrorBody its GET route would have sent. Nothing
// in a frame is delimited by a newline, so nothing on this path may trim
// or append one. Strings travel unescaped behind their length, so a
// request frame is no longer than the /v1/batch JSON its sub-queries came
// in, save what JSON decoding made of bytes that are not UTF-8
// (maxShardRequestBytes), and holds no more names and values than that
// JSON could (ReadShardRequest). It is not a public API: a
// fleet is deployed from one build, so a request or a reply that is not a
// version-1 frame is an error, never a cue to fall back to another form.

// FrameContentType marks a /v1/shard request and its reply.
const FrameContentType = "application/x-bivoc-frame"

const frameVersion = 1

// AppendShardRequest appends the /v1/shard request frame of queries to b.
func AppendShardRequest(b []byte, queries []BatchQuery) []byte {
	var names []string
	return wire.AppendList(append(b, frameVersion), queries, func(b []byte, q BatchQuery) []byte {
		names = names[:0]
		for name := range q.Params {
			names = append(names, name)
		}
		slices.Sort(names)
		return wire.AppendList(wire.AppendBytes(b, q.Endpoint), names, func(b []byte, name string) []byte {
			return wire.AppendList(wire.AppendBytes(b, name), q.Params[name], wire.AppendBytes[string])
		})
	})
}

// ReadShardRequest decodes a /v1/shard request frame. Only the canonical
// encoding is accepted — the version this build writes, at least one and
// at most MaxBatchQueries sub-queries, each one's parameter names sorted
// and unique, no more names and values than a MaxBatchBytes /v1/batch
// body could hold (jsonLeast), no trailing bytes — so a request decodes
// to exactly what AppendShardRequest wrote. The names and values are
// counted against that body before the map or list a count announces is
// made, so a frame costs no more memory than the JSON batch it stands for.
func ReadShardRequest(b []byte) ([]BatchQuery, error) {
	r := wire.NewReader(b)
	if v := r.Uvarint(); r.Err() == nil && v != frameVersion {
		r.Failf("request version %d, want %d", v, frameVersion)
	}
	n := r.Count(2)
	if n == 0 {
		r.Failf("request has no queries")
	} else if n > MaxBatchQueries {
		r.Failf("request has %d queries, limit is %d", n, MaxBatchQueries)
		n = 0
	}
	room := MaxBatchBytes // what the batch has left once the strings read so far are in it
	fits := func(least int) bool {
		if room -= least; room < 0 {
			r.Failf("request holds more parameters than a %d-byte batch can", MaxBatchBytes)
		}
		return r.Err() == nil
	}
	queries := make([]BatchQuery, n)
	for i := range queries {
		q := &queries[i]
		q.Endpoint = r.String()
		names := r.Count(2)
		if !fits(names * jsonLeastName) {
			return nil, r.Err()
		}
		if names > 0 {
			q.Params = make(map[string][]string, names)
		}
		prev := ""
		for k := range names {
			name := r.String()
			if k > 0 && name <= prev {
				r.Failf("query %d: parameter %q after %q: names not sorted and unique", i, name, prev)
			}
			nv := r.Count(1)
			if !fits(jsonLeast(name) + nv*jsonLeastValue) {
				return nil, r.Err()
			}
			values := make([]string, nv)
			for v := range values {
				values[v] = r.String()
				fits(jsonLeast(values[v]))
			}
			q.Params[name] = values
			prev = name
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return queries, nil
}

// The least a parameter takes in /v1/batch JSON: a name `"":[]` and a
// value `""` besides their bytes, and a string of n bytes at least n/3
// of those, because encoding/json decodes each byte that is not UTF-8 to
// U+FFFD, three bytes. A request whose JSON form fits in MaxBatchBytes —
// any /v1/batch a coordinator accepts, any request the JSON exchange
// could carry — fits by this count.
const jsonLeastName, jsonLeastValue = 5, 2

func jsonLeast(s string) int { return (len(s) + 2) / 3 }

// maxShardRequestBytes bounds a /v1/shard request body: the frame of any
// batch a coordinator accepts. The frame is no longer than the batch's
// JSON but for the bytes that are not UTF-8 (jsonLeast).
const maxShardRequestBytes = 3 * MaxBatchBytes

// readShardRequest reads a /v1/shard request under maxShardRequestBytes;
// every error is the caller's (400).
func readShardRequest(w http.ResponseWriter, r *http.Request) ([]BatchQuery, error) {
	if ct := r.Header.Get("Content-Type"); ct != FrameContentType {
		return nil, fmt.Errorf("shard request is %q, not a %s", ct, FrameContentType)
	}
	buf := bodyScratch.Get().(*bytes.Buffer)
	defer bodyScratch.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxShardRequestBytes)); err != nil {
		return nil, fmt.Errorf("reading shard request: %w", err)
	}
	queries, err := ReadShardRequest(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("decoding shard request: %w", err)
	}
	return queries, nil
}

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
	queries, err := readShardRequest(w, r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	sn := s.snap.Load()
	results := make([]ShardResult, len(queries))
	size := 2 * wire.MaxVarintLen
	for i, bq := range queries {
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

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
)

// POST /v1/batch — many /v1 queries in one request, answered from one
// snapshot load so the whole batch is generation-consistent. The point
// is transport amortization: HTTP+JSON framing is the dominant
// per-request cost (cmd/bivocbench: server.http_miss_ms against
// server.batch_per_sub_ms), so a dashboard issuing N small queries pays
// it once instead of N times. Every sub-query is planned from the
// same endpoint table as its GET route, hitting the same snapshot-LRU
// entries under the same canonical keys — a dim queried via batch and
// via /v1/count shares one cache line by construction.

// MaxBatchQueries bounds the sub-queries of one /v1/batch request.
const MaxBatchQueries = 1000

// MaxBatchBytes bounds the /v1/batch request body (1 MiB).
const MaxBatchBytes = 1 << 20

// BatchQuery is one sub-query of a /v1/batch request: the /v1 endpoint
// name without the prefix ("count", "associate", "relfreq",
// "drilldown", "trend", "concepts") plus the query parameters that
// endpoint takes as a GET.
type BatchQuery struct {
	Endpoint string              `json:"endpoint"`
	Params   map[string][]string `json:"params"`
}

// BatchRequest is the /v1/batch request body.
type BatchRequest struct {
	Queries []BatchQuery `json:"queries"`
}

// BatchResult is one sub-query's outcome: the HTTP status the GET
// endpoint would have answered with, and the exact body it would have
// sent (an ErrorResponse when status is not 200).
type BatchResult struct {
	Status int             `json:"status"`
	Body   json.RawMessage `json:"body"`
}

// BatchResponse is the /v1/batch envelope. Generation and Sealed
// describe the single snapshot every sub-result was computed from.
type BatchResponse struct {
	Generation uint64        `json:"generation"`
	Sealed     bool          `json:"sealed"`
	Results    []BatchResult `json:"results"`
	FedStatus
}

// Encode renders the envelope's body — byte for byte what marshalBody
// makes of it — without passing the sub-bodies through the encoder again:
// each is compact, escaped encoding/json output already (a body a daemon
// rendered, an ErrorBody, or a shard's relayed error the coordinator has
// checked), so it is copied between the head and tail of the envelope
// marshalled without results.
func (resp BatchResponse) Encode() ([]byte, error) {
	results := resp.Results
	if results == nil {
		return marshalBody(resp)
	}
	resp.Results = []BatchResult{}
	shell, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	const open, mid, null = `{"status":`, `,"body":`, "null"
	const wrap = len(open) + len("-9223372036854775808") + len(mid) + len("}") // around a sub-body, at most
	size := 0
	for _, res := range results {
		size += wrap + max(len(res.Body), len(null))
	}
	return spliceList(shell, "results", len(results), size, func(b []byte, i int) []byte {
		b = append(strconv.AppendInt(append(b, open...), int64(results[i].Status), 10), mid...)
		if len(results[i].Body) == 0 {
			return append(b, null+"}"...)
		}
		return append(append(b, results[i].Body...), '}')
	}), nil
}

// NewBatchResult wraps one sub-query's outcome — the body served, or the
// status and error that replaced it — exactly as the GET route would
// have answered, minus the trailing newline the envelope does not carry
// per result.
func NewBatchResult(cb *CachedBody, status int, err error, fs FedStatus) BatchResult {
	if err != nil {
		return BatchResult{Status: status, Body: ErrorBody(status, err, fs)}
	}
	return BatchResult{Status: status, Body: bytes.TrimSuffix(cb.Plain, []byte("\n"))}
}

// DecodeBatch reads a /v1/batch request under the body-size and
// sub-query limits both daemons apply; every error is the caller's (400).
// The body is one JSON object: only whitespace may follow it.
func DecodeBatch(w http.ResponseWriter, r *http.Request) (BatchRequest, error) {
	var req BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBatchBytes))
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("decoding batch request: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return req, fmt.Errorf("decoding batch request: data after the JSON object")
	}
	if len(req.Queries) == 0 {
		return req, fmt.Errorf("batch request has no queries")
	}
	if len(req.Queries) > MaxBatchQueries {
		return req, fmt.Errorf("batch request has %d queries, limit is %d", len(req.Queries), MaxBatchQueries)
	}
	return req, nil
}

// runBatchQuery answers one sub-query from sn through the same plan and
// cached path as its GET route.
func (s *Server) runBatchQuery(sn *snapshot, bq BatchQuery) BatchResult {
	p, err := s.eps.Plan(bq.Endpoint, url.Values(bq.Params))
	if err != nil {
		return NewBatchResult(nil, http.StatusBadRequest, err, FedStatus{})
	}
	cb, status, err := s.answer(sn, p.Key, p.answerFrom)
	return NewBatchResult(cb, status, err, FedStatus{})
}

// handleBatch answers POST /v1/batch. The envelope is 200 whenever the
// request itself parses; per-sub-query failures are carried inside
// Results so one bad dimension does not void its siblings.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeBatch(w, r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	sn := s.snap.Load()
	w.Header().Set(GenerationHeader, strconv.FormatUint(sn.gen, 10))
	resp := BatchResponse{
		Generation: sn.gen,
		Sealed:     sn.sealed,
		Results:    make([]BatchResult, len(req.Queries)),
	}
	for i, bq := range req.Queries {
		resp.Results[i] = s.runBatchQuery(sn, bq)
	}
	body, err := resp.Encode()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	WriteJSONBody(w, r, http.StatusOK, &CachedBody{Plain: body})
}

package fed

import (
	"fmt"
	"net/http"
	"net/url"

	"bivoc/internal/server"
)

// POST /v1/batch on the coordinator: many federated queries in one
// request, answered with ONE exchange. Each sub-query is planned from the
// same endpoint table as its GET route, and the ones that parse are sent,
// as the client named them, in one /v1/shard request per shard — so each
// shard answers all sub-queries from one snapshot, and the federated
// batch pays one scatter instead of one per sub-query. Each sub-query's
// results go through fold, the function a GET's go through, so a batched
// federated answer is byte-identical to the equivalent single federated
// GET (modulo the envelope's stripped trailing newline).

// handleBatch answers POST /v1/batch by exchanging the planned
// sub-queries for the shards' frames and merging each sub-query's
// partials through its plan.
func (c *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	req, err := server.DecodeBatch(w, r)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err, server.FedStatus{})
		return
	}

	// Plan every sub-query; parse failures become per-sub 400 results and
	// stay out of the exchange (their plans stay nil).
	results := make([]server.BatchResult, len(req.Queries))
	plans := make([]*server.Plan, len(req.Queries))
	planned := make([]server.BatchQuery, 0, len(req.Queries))
	for i, bq := range req.Queries {
		p, err := c.eps.Plan(bq.Endpoint, url.Values(bq.Params))
		if err != nil {
			results[i] = server.NewBatchResult(nil, http.StatusBadRequest, err, server.FedStatus{})
			continue
		}
		plans[i] = p
		planned = append(planned, bq)
	}

	// With nothing to exchange (every sub-query failed to parse) the
	// envelope still answers 200 with the per-sub errors, a zero head and
	// the no-information vectors; so does one no shard sent a frame for.
	vec := c.blankVec()
	var head server.Head
	var down []int // shards that could not answer the request at all
	var answers []shardAnswer
	if len(planned) > 0 {
		answers, vec, down = c.exchange(r.Context(), planned)
		if len(down) == len(c.cfg.Shards) {
			vec.set(w.Header())
			server.WriteError(w, http.StatusServiceUnavailable,
				fmt.Errorf("all %d shards unavailable", len(down)), fedStatus(down))
			return
		}
		merged, frames := server.MergedHead(server.FedStatus{}), 0
		for _, a := range answers {
			if a.frame != nil {
				merged.Fold(a.frame.Generation, a.frame.Sealed)
				frames++
			}
		}
		if frames > 0 {
			head = merged
		}
	}

	scattered := 0 // index of the next planned sub-query within the frames
	for i, p := range plans {
		if p != nil {
			results[i] = c.fold(p, scattered, answers).batchResult()
			scattered++
		}
	}
	// The single-node envelope: Generation and Sealed fold the frames'
	// (min, AND) like every other federated response, FedStatus reports
	// the shards that were down for the whole batch.
	vec.set(w.Header())
	body, err := server.BatchResponse{
		Generation: head.Generation,
		Sealed:     head.Sealed,
		Results:    results,
		FedStatus:  fedStatus(down),
	}.Encode()
	if err != nil {
		server.WriteError(w, http.StatusInternalServerError, err, server.FedStatus{})
		return
	}
	server.WriteJSONBody(w, r, http.StatusOK, &server.CachedBody{Plain: body})
}

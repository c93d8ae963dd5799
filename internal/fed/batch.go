package fed

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"

	"bivoc/internal/server"
)

// POST /v1/batch on the coordinator: many federated queries in one
// request, answered with ONE batch scatter. Each sub-query is planned
// from the same endpoint table as its GET route, its shard-side form
// (associate → marginals/assoc and so on) joins one translated batch,
// and that batch is POSTed to every shard's /v1/batch — so each shard
// answers all sub-queries from one snapshot, and the federated batch
// pays one scatter instead of one per sub-query. Each sub-query's
// replies go through fold, the function a GET's replies go through, so a
// batched federated answer is byte-identical to the equivalent single
// federated GET (modulo the envelope's stripped trailing newline).

// handleBatch answers POST /v1/batch by scattering one shard batch of
// the sub-queries' shard-side forms and merging each sub-query's replies
// through its plan.
func (c *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	req, err := server.DecodeBatch(w, r)
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err, server.FedStatus{})
		return
	}

	// Plan every sub-query; parse failures become per-sub 400 results and
	// stay out of the scatter (their plans stay nil).
	results := make([]server.BatchResult, len(req.Queries))
	plans := make([]*server.Plan, len(req.Queries))
	var shardBatch server.BatchRequest
	for i, bq := range req.Queries {
		p, err := c.eps.Plan(bq.Endpoint, url.Values(bq.Params))
		if err != nil {
			results[i] = server.NewBatchResult(nil, http.StatusBadRequest, err, server.FedStatus{})
			continue
		}
		plans[i] = p
		shardBatch.Queries = append(shardBatch.Queries, server.BatchQuery{Endpoint: p.ShardEndpoint, Params: p.ShardParams})
	}

	// With nothing to scatter (every sub-query failed to parse) the
	// envelope still answers 200 with the per-sub errors, a zero head and
	// the no-information vector.
	genVec := c.blankVec()
	var head server.Head
	var down []int                                                  // shards that could not answer the batch at all
	shardResults := make([][]server.BatchResult, len(c.cfg.Shards)) // nil for those
	if len(shardBatch.Queries) > 0 {
		payload, err := json.Marshal(shardBatch)
		if err != nil {
			server.WriteError(w, http.StatusInternalServerError, err, server.FedStatus{})
			return
		}
		head = server.MergedHead(server.FedStatus{})
		for s, rep := range c.scatter(r.Context(), http.MethodPost, "/v1/batch", payload) {
			if rep.down() || rep.status != http.StatusOK {
				// Any non-200 batch envelope means the shard could not
				// answer the batch; it is down for this request, like a 5xx
				// on the GET path.
				down = append(down, s)
				continue
			}
			var sr server.BatchResponse
			err := decodeShard(rep, s, &sr)
			if err == nil && len(sr.Results) != len(shardBatch.Queries) {
				err = fmt.Errorf("shard %d: batch returned %d results for %d queries", s, len(sr.Results), len(shardBatch.Queries))
			}
			if err != nil {
				w.Header().Set(server.GenerationHeader, joinVec(genVec))
				server.WriteError(w, http.StatusInternalServerError, err, fedStatus(down))
				return
			}
			shardResults[s] = sr.Results
			genVec[s] = rep.gen
			head.Fold(sr.Generation, sr.Sealed)
		}
		if len(down) == len(c.cfg.Shards) {
			w.Header().Set(server.GenerationHeader, joinVec(genVec))
			server.WriteError(w, http.StatusServiceUnavailable,
				fmt.Errorf("all %d shards unavailable", len(down)), fedStatus(down))
			return
		}
	}

	vec, full := c.observe(genVec)
	scattered := 0 // index of the next planned sub-query within the shard batch
	for i, p := range plans {
		if p != nil {
			results[i] = c.fold(p, scattered, shardResults, vec, full).batchResult()
			scattered++
		}
	}
	// The single-node envelope: Generation and Sealed fold the per-shard
	// envelopes (min, AND) like every other federated response, FedStatus
	// reports the shards that were down for the whole batch.
	c.writeOK(w, r, genVec, server.BatchResponse{
		Generation: head.Generation,
		Sealed:     head.Sealed,
		Results:    results,
		FedStatus:  fedStatus(down),
	})
}

package fed

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"bivoc/internal/server"
)

// POST /v1/batch on the coordinator: many federated queries in one
// request, answered with ONE batch scatter. Each sub-query is planned
// from the same endpoint table as its GET route, its shard-side form
// (associate → marginals/assoc and so on) joins one translated batch,
// and that batch is POSTed to every shard's /v1/batch — so each shard
// answers all sub-queries from one snapshot, and the federated batch
// pays one scatter instead of one per sub-query. Sub-results are merged
// by the same plans as the GET path, so a batched federated answer is
// byte-identical to the equivalent single federated GET (modulo the
// envelope's stripped trailing newline).

// BatchResponse answers /v1/batch on the coordinator: the single-node
// envelope, whose Generation and Sealed fold the per-shard envelopes
// (min, AND) like every other federated response, and whose FedStatus
// reports shards that were down for the whole batch.
type BatchResponse = server.BatchResponse

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

	vec := joinVec(genVec)
	full := fullVec(genVec)
	if full {
		c.cache.observe(vec, time.Now())
	}
	scattered := 0 // index of the next planned sub-query within the shard batch
	for i, p := range plans {
		if p != nil {
			results[i] = c.mergeBatchSub(p, scattered, shardResults, vec, full)
			scattered++
		}
	}
	c.writeOK(w, r, genVec, BatchResponse{
		Generation: head.Generation,
		Sealed:     head.Sealed,
		Results:    results,
		FedStatus:  fedStatus(down),
	})
}

// mergeBatchSub folds one sub-query's per-shard batch results into a
// federated sub-result through the same merged path as a GET. A shard
// down for the batch is missing from every sub-query; a per-sub shard 5xx
// degrades just that sub-query; a per-sub 4xx is relayed verbatim (the
// query is equally the client's fault on every shard).
func (c *Coordinator) mergeBatchSub(p *server.Plan, sub int, shardResults [][]server.BatchResult, vec string, full bool) server.BatchResult {
	var g gather
	var relay *server.BatchResult
	for s, results := range shardResults {
		switch {
		case results == nil || results[sub].Status >= 500:
			g.missing = append(g.missing, s)
		case results[sub].Status != http.StatusOK:
			if relay == nil {
				relay = &results[sub]
			}
		default:
			g.live = append(g.live, server.ShardBody{Shard: s, Body: results[sub].Body})
		}
	}
	if relay != nil {
		return *relay
	}
	cb, status, err := c.merged(p, &g)
	// Only sub-results merged over the full fleet are cacheable — and they
	// are exactly the bytes the single GET path would serve.
	if err == nil && full && len(g.missing) == 0 {
		c.cache.put(p.Key, vec, cb)
	}
	return server.NewBatchResult(cb, status, err, g.fedStatus())
}

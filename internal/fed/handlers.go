package fed

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"bivoc/internal/server"
)

// The coordinator has no query grammar of its own: every /v1 query is
// planned by the endpoint table in internal/server, and what is here is
// the transport around a plan — scatter its shard-side form, fold the
// replies (the plan merges the live ones), cache and write. The
// response types are the single-node ones, whose trailing
// server.FedStatus stays empty (and so invisible) while every shard
// answers; the full per-shard generation vector rides the
// X-Bivoc-Generation header, comma-joined in shard order with "-" for
// shards that did not answer.

// ShardHealth is one shard's line in the federated /healthz.
type ShardHealth struct {
	Shard      int    `json:"shard"`
	Addr       string `json:"addr"`
	Status     string `json:"status"` // ok | degraded | unreachable
	Generation uint64 `json:"generation,omitempty"`
	Sealed     bool   `json:"sealed,omitempty"`
	Docs       int    `json:"docs,omitempty"`
	Error      string `json:"error,omitempty"`
}

// HealthResponse answers /healthz on the coordinator: always 200 while
// the coordinator serves; shard loss degrades, it does not kill.
type HealthResponse struct {
	Status string        `json:"status"` // ok | degraded
	Docs   int           `json:"docs"`
	Shards []ShardHealth `json:"shards"`
	server.FedStatus
}

// ShardStatsz is one shard's section of the federated /statsz.
type ShardStatsz struct {
	Shard int                    `json:"shard"`
	Addr  string                 `json:"addr"`
	Error string                 `json:"error,omitempty"`
	Stats *server.StatszResponse `json:"stats,omitempty"`
}

// StatszResponse answers /statsz on the coordinator: fleet-wide sums
// plus every shard's own stats section. Cache sums the shard snapshot
// caches; FedCache is the coordinator's own generation-vector result
// cache. Serving is the coordinator's own SLO section; ShardServing is
// the element-wise sum of every live shard's serving section.
type StatszResponse struct {
	Docs         int                   `json:"docs"`
	Segments     int                   `json:"segments"`
	Generations  []string              `json:"generations"`
	Cache        server.CacheStatsJSON `json:"cache"`
	FedCache     server.CacheStatsJSON `json:"fed_cache"`
	Serving      server.ServingJSON    `json:"serving"`
	ShardServing server.ServingJSON    `json:"shard_serving"`
	Shards       []ShardStatsz         `json:"shards"`
	server.FedStatus
}

// buildMux wires the coordinator routes: the public endpoints of the
// table, /v1/batch, and the introspection pair. The wrapper stamps a
// no-information generation vector ("-" per shard) so even locally
// rejected requests and 404s carry the header; scattered handlers
// overwrite it with the real per-shard vector. Every route runs through
// the SLO recorder feeding /statsz's serving section.
func (c *Coordinator) buildMux() http.Handler {
	mux := http.NewServeMux()
	route := func(method, path string, h http.HandlerFunc) {
		mux.HandleFunc(method+" "+path, c.slo.Wrap(path, h))
	}
	for _, name := range c.eps.Names() {
		route("GET", "/v1/"+name, c.handleQuery(name))
	}
	route("POST", "/v1/batch", c.handleBatch)
	route("GET", "/healthz", c.handleHealthz)
	route("GET", "/statsz", c.handleStatsz)
	blank := joinVec(c.blankVec())
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(server.GenerationHeader, blank)
		mux.ServeHTTP(w, r)
	})
}

// blankVec is the generation vector of a fleet nobody has heard from.
func (c *Coordinator) blankVec() []string {
	vec := make([]string, len(c.cfg.Shards))
	for i := range vec {
		vec[i] = "-"
	}
	return vec
}

func fedStatus(missing []int) server.FedStatus {
	return server.FedStatus{Degraded: len(missing) > 0, MissingShards: missing}
}

// classify sorts an introspection scatter's replies: a 200 contributes
// its generation to the vector, anything else is missing ("-").
func (c *Coordinator) classify(replies []shardReply) (missing []int, genVec []string) {
	genVec = c.blankVec()
	for i, rep := range replies {
		if rep.failure() != "" {
			missing = append(missing, i)
		} else {
			genVec[i] = rep.gen
		}
	}
	return missing, genVec
}

// outcome is one federated query's answer in the form both routes can
// write: a shard's 4xx to pass on as it came, or the merged body, or the
// status and error that took its place.
type outcome struct {
	relay  *server.BatchResult
	body   *server.CachedBody
	status int
	err    error
	fs     server.FedStatus
}

// write answers a GET with the outcome; the caller has set the generation
// vector. A relayed or local error is sent plain, as a daemon sends one.
func (o outcome) write(w http.ResponseWriter, r *http.Request) {
	switch {
	case o.relay != nil:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(o.relay.Status)
		w.Write(o.relay.Body)
	case o.err != nil:
		server.WriteError(w, o.status, o.err, o.fs)
	default:
		server.WriteJSONBody(w, r, o.status, o.body)
	}
}

// batchResult is the outcome as one sub-result of a /v1/batch envelope.
func (o outcome) batchResult() server.BatchResult {
	if o.relay != nil {
		return *o.relay
	}
	return server.NewBatchResult(o.body, o.status, o.err, o.fs)
}

// fold decides one query's outcome from its per-shard results — the sub-th
// of each shard's batch, or a GET's replies as one-result lists.
// results[s] is nil when shard s was down for the whole request and a 5xx
// result makes it missing for this query only; the first 4xx is the
// query's fault the same way on every shard, so it is relayed verbatim;
// otherwise the plan merges the 200s, a 503 when there are none (the only
// condition that fails a query) and a structured 500 when one breaks the
// wire contract. A body merged over the whole fleet (full: vec has no
// gap) is memoized under vec, shared with the cache so that a later
// gzip-accepting replay reuses the compression whichever request pays it.
func (c *Coordinator) fold(p *server.Plan, sub int, results [][]server.BatchResult, vec string, full bool) outcome {
	var live []server.ShardBody
	var missing []int
	var relay *server.BatchResult
	for s, rs := range results {
		switch {
		case rs == nil || rs[sub].Status >= 500:
			missing = append(missing, s)
		case rs[sub].Status != http.StatusOK:
			if relay == nil {
				relay = &rs[sub]
			}
		default:
			live = append(live, server.ShardBody{Shard: s, Body: rs[sub].Body})
		}
	}
	if relay != nil {
		return outcome{relay: relay}
	}
	fs := fedStatus(missing)
	if len(live) == 0 {
		return outcome{status: http.StatusServiceUnavailable, err: fmt.Errorf("all %d shards unavailable", len(c.cfg.Shards)), fs: fs}
	}
	var body []byte
	v, err := p.Merge(live, fs)
	if err == nil {
		body, err = json.Marshal(v)
	}
	if err != nil {
		return outcome{status: http.StatusInternalServerError, err: err, fs: fs}
	}
	cb := &server.CachedBody{Plain: append(body, '\n')}
	if full && len(missing) == 0 {
		c.cache.put(p.Key, vec, cb)
	}
	return outcome{body: cb, status: http.StatusOK, fs: fs}
}

// writeOK writes an introspection or envelope 200 under the gathered
// generation vector, gzip-encoded when the client negotiated it.
func (c *Coordinator) writeOK(w http.ResponseWriter, r *http.Request, genVec []string, v any) {
	w.Header().Set(server.GenerationHeader, joinVec(genVec))
	body, err := json.Marshal(v)
	if err != nil {
		server.WriteError(w, http.StatusInternalServerError, err, server.FedStatus{})
		return
	}
	server.WriteJSONBody(w, r, http.StatusOK, &server.CachedBody{Plain: append(body, '\n')})
}

// decodeShard unmarshals one shard reply, surfacing a shard that
// violates the wire contract as a coordinator-internal error.
func decodeShard(rep shardReply, shard int, v any) error {
	if err := json.Unmarshal(rep.body, v); err != nil {
		return fmt.Errorf("shard %d: decoding response: %w", shard, err)
	}
	return nil
}

// handleQuery serves GET /v1/<name>: plan, consult the generation-vector
// result cache — a hit serves the previously merged bytes without
// touching any shard — and on a miss scatter the plan's shard-side form
// and write what fold makes of the replies. A parse failure never
// scatters, so it keeps the wrapper's no-information vector.
func (c *Coordinator) handleQuery(name string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		p, err := c.eps.Plan(name, r.URL.Query())
		if err != nil {
			server.WriteError(w, http.StatusBadRequest, err, server.FedStatus{})
			return
		}
		if cb, vec, ok := c.cache.get(p.Key, time.Now()); ok {
			w.Header().Set(server.GenerationHeader, vec)
			server.WriteJSONBody(w, r, http.StatusOK, cb)
			return
		}
		replies := c.scatter(r.Context(), http.MethodGet, "/v1/"+p.ShardEndpoint+"?"+p.ShardParams.Encode(), nil)
		genVec := c.blankVec()
		ones := make([]server.BatchResult, len(replies))
		results := make([][]server.BatchResult, len(replies))
		for s, rep := range replies {
			if !rep.down() {
				genVec[s] = rep.gen
				ones[s] = server.BatchResult{Status: rep.status, Body: rep.body}
				results[s] = ones[s : s+1]
			}
		}
		vec, full := c.observe(genVec)
		w.Header().Set(server.GenerationHeader, vec)
		c.fold(p, 0, results, vec, full).write(w, r)
	}
}

// observe renders a scatter's generation vector in header form and, when
// every shard answered, refreshes the cache's trust in it.
func (c *Coordinator) observe(genVec []string) (vec string, full bool) {
	vec, full = joinVec(genVec), fullVec(genVec)
	if full {
		c.cache.observe(vec, time.Now())
	}
	return vec, full
}

// GET /healthz — always 200 while the coordinator serves; aggregates
// per-shard health and degrades on any unreachable or degraded shard.
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	replies := c.scatter(r.Context(), http.MethodGet, "/healthz", nil)
	missing, genVec := c.classify(replies)
	resp := HealthResponse{Status: "ok", Shards: make([]ShardHealth, len(c.cfg.Shards)), FedStatus: fedStatus(missing)}
	if resp.Degraded {
		resp.Status = "degraded"
	}
	for i, addr := range c.cfg.Shards {
		sh := ShardHealth{Shard: i, Addr: addr}
		rep := replies[i]
		if sh.Error = rep.failure(); sh.Error != "" {
			sh.Status = "unreachable"
			resp.Shards[i] = sh
			continue
		}
		var hr server.HealthResponse
		if err := decodeShard(rep, i, &hr); err != nil {
			sh.Status = "unreachable"
			sh.Error = err.Error()
			resp.Shards[i] = sh
			continue
		}
		sh.Status = hr.Status
		sh.Generation = hr.Generation
		sh.Sealed = hr.Sealed
		sh.Docs = hr.Docs
		if hr.IngestError != "" {
			sh.Error = hr.IngestError
		} else if hr.PersistError != "" {
			sh.Error = hr.PersistError
		}
		resp.Docs += hr.Docs
		if hr.Status != "ok" {
			resp.Status = "degraded"
		}
		resp.Shards[i] = sh
	}
	c.writeOK(w, r, genVec, resp)
}

// GET /statsz — fleet-wide document/segment/cache sums plus each
// shard's own stats section verbatim.
func (c *Coordinator) handleStatsz(w http.ResponseWriter, r *http.Request) {
	replies := c.scatter(r.Context(), http.MethodGet, "/statsz", nil)
	missing, genVec := c.classify(replies)
	fedHits, fedMisses, fedSize := c.cache.stats()
	resp := StatszResponse{
		Generations: genVec,
		FedCache: server.CacheStatsJSON{
			Hits:     fedHits,
			Misses:   fedMisses,
			Size:     fedSize,
			Capacity: c.cfg.cacheSize(),
		},
		Serving:   c.slo.Snapshot(),
		Shards:    make([]ShardStatsz, len(c.cfg.Shards)),
		FedStatus: fedStatus(missing),
	}
	for i, addr := range c.cfg.Shards {
		ss := ShardStatsz{Shard: i, Addr: addr}
		rep := replies[i]
		if ss.Error = rep.failure(); ss.Error != "" {
			resp.Shards[i] = ss
			continue
		}
		var sr server.StatszResponse
		if err := decodeShard(rep, i, &sr); err != nil {
			ss.Error = err.Error()
			resp.Shards[i] = ss
			continue
		}
		resp.Docs += sr.Docs
		resp.Segments += sr.Segments.Count
		resp.Cache.Hits += sr.Cache.Hits
		resp.Cache.Misses += sr.Cache.Misses
		resp.Cache.Size += sr.Cache.Size
		resp.Cache.Capacity += sr.Cache.Capacity
		server.MergeServing(&resp.ShardServing, sr.Serving)
		ss.Stats = &sr
		resp.Shards[i] = ss
	}
	c.writeOK(w, r, genVec, resp)
}

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
// the transport around a plan — scatter its shard-side form, classify
// the replies, let the plan merge the live ones, cache and write. The
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

// gather is one query's classified shard replies.
type gather struct {
	live    []server.ShardBody // the 200 replies, in shard order
	missing []int              // shards down for this query, in shard order
}

func (g *gather) fedStatus() server.FedStatus { return fedStatus(g.missing) }

func fedStatus(missing []int) server.FedStatus {
	return server.FedStatus{Degraded: len(missing) > 0, MissingShards: missing}
}

// classify sorts one scatter's replies. A 200 is live; an unreachable,
// timed-out or 5xx shard is missing ("-" in the vector). A client error
// (4xx) is the query's fault the same way on every shard, so the first
// one comes back as relay, to be passed on verbatim — except on the
// introspection scatters (relayClientErrors false), which answer 200
// whatever the shards say and count any non-200 as missing.
func (c *Coordinator) classify(replies []shardReply, relayClientErrors bool) (g gather, genVec []string, relay *shardReply) {
	genVec = c.blankVec()
	for i := range replies {
		rep := &replies[i]
		switch {
		case rep.down() || (rep.status != http.StatusOK && !relayClientErrors):
			g.missing = append(g.missing, i)
		case rep.status != http.StatusOK:
			genVec[i] = rep.gen
			if relay == nil {
				relay = rep
			}
		default:
			g.live = append(g.live, server.ShardBody{Shard: i, Body: rep.body})
			genVec[i] = rep.gen
		}
	}
	return g, genVec, relay
}

// merged folds a query's live replies into its federated body through
// the plan's merge: a 503 when no shard answered (the only condition
// that fails a query), a structured 500 when a reply breaks the wire
// contract.
func (c *Coordinator) merged(p *server.Plan, g *gather) (*server.CachedBody, int, error) {
	if len(g.live) == 0 {
		return nil, http.StatusServiceUnavailable, fmt.Errorf("all %d shards unavailable", len(c.cfg.Shards))
	}
	v, err := p.Merge(g.live, g.fedStatus())
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	body, err := json.Marshal(v)
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	return &server.CachedBody{Plain: append(body, '\n')}, http.StatusOK, nil
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
// touching any shard — and on a miss scatter the plan's shard-side form,
// merge, write, and (when every shard answered) observe the fresh vector
// and memoize the body under it. A parse failure never scatters, so it
// keeps the wrapper's no-information vector.
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
		g, genVec, relay := c.classify(replies, true)
		vec := joinVec(genVec)
		w.Header().Set(server.GenerationHeader, vec)
		if relay != nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(relay.status)
			w.Write(relay.body)
			return
		}
		cb, status, err := c.merged(p, &g)
		if err != nil {
			server.WriteError(w, status, err, g.fedStatus())
			return
		}
		if fullVec(genVec) {
			c.cache.observe(vec, time.Now())
			// The CachedBody is shared with the cache, so a later
			// gzip-accepting replay reuses the compression paid here (or
			// pays it once, whichever request comes first).
			c.cache.put(p.Key, vec, cb)
		}
		server.WriteJSONBody(w, r, status, cb)
	}
}

// GET /healthz — always 200 while the coordinator serves; aggregates
// per-shard health and degrades on any unreachable or degraded shard.
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	replies := c.scatter(r.Context(), http.MethodGet, "/healthz", nil)
	g, genVec, _ := c.classify(replies, false)
	resp := HealthResponse{Status: "ok", Shards: make([]ShardHealth, len(c.cfg.Shards)), FedStatus: g.fedStatus()}
	if resp.Degraded {
		resp.Status = "degraded"
	}
	for i, addr := range c.cfg.Shards {
		sh := ShardHealth{Shard: i, Addr: addr}
		rep := replies[i]
		if rep.down() || rep.status != http.StatusOK {
			sh.Status = "unreachable"
			if rep.err != nil {
				sh.Error = rep.err.Error()
			} else {
				sh.Error = fmt.Sprintf("status %d", rep.status)
			}
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
	g, genVec, _ := c.classify(replies, false)
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
		FedStatus: g.fedStatus(),
	}
	for i, addr := range c.cfg.Shards {
		ss := ShardStatsz{Shard: i, Addr: addr}
		rep := replies[i]
		if rep.down() || rep.status != http.StatusOK {
			if rep.err != nil {
				ss.Error = rep.err.Error()
			} else {
				ss.Error = fmt.Sprintf("status %d", rep.status)
			}
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

package fed

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"bivoc/internal/server"
)

// The coordinator has no query grammar of its own: every /v1 query is
// planned by the endpoint table in internal/server, and what is here is
// the transport around a plan — exchange the query for the shards'
// partials, fold them (the plan merges the live ones) and write. The
// response types are the single-node ones, whose trailing
// server.FedStatus stays empty (and so invisible) while every shard
// answers; the full per-shard generation vector rides the
// X-Bivoc-Generation header, and the shards' boot epochs X-Bivoc-Epoch,
// each comma-joined in shard order with "-" for shards that did not
// answer.

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
// caches, the only result caches a federation has. Serving is the
// coordinator's own SLO section; ShardServing is the element-wise sum of
// every live shard's serving section.
type StatszResponse struct {
	Docs         int                   `json:"docs"`
	Segments     int                   `json:"segments"`
	Generations  []string              `json:"generations"`
	Cache        server.CacheStatsJSON `json:"cache"`
	Scatter      ScatterStatsJSON      `json:"scatter"`
	Serving      server.ServingJSON    `json:"serving"`
	ShardServing server.ServingJSON    `json:"shard_serving"`
	Shards       []ShardStatsz         `json:"shards"`
	server.FedStatus
}

// ScatterStatsJSON is the scatter section of /statsz: the query path's
// traffic between daemons, which no longer shows up as JSON anywhere —
// /v1/shard requests sent, bytes of reply read, and replies (or partials
// inside them) rejected as malformed.
type ScatterStatsJSON struct {
	Requests   uint64 `json:"requests"`
	ReplyBytes uint64 `json:"reply_bytes"`
	Malformed  uint64 `json:"malformed"`
}

// buildMux wires the coordinator routes: the public endpoints of the
// table, /v1/batch, and the introspection pair. The wrapper stamps
// no-information generation and epoch vectors ("-" per shard) so even
// locally rejected requests and 404s carry the headers; scattered
// handlers overwrite them with the real per-shard vectors. Every route
// runs through the SLO recorder feeding /statsz's serving section.
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
	blank := strings.Join(c.blankVec().gens, ",") // both vectors: "-" per shard
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(server.GenerationHeader, blank)
		w.Header().Set(server.EpochHeader, blank)
		mux.ServeHTTP(w, r)
	})
}

// blankVec is the vector of a fleet nobody has heard from.
func (c *Coordinator) blankVec() fleetVec {
	vec := fleetVec{gens: make([]string, len(c.cfg.Shards)), epochs: make([]string, len(c.cfg.Shards))}
	for i := range vec.gens {
		vec.gens[i], vec.epochs[i] = "-", "-"
	}
	return vec
}

func fedStatus(missing []int) server.FedStatus {
	return server.FedStatus{Degraded: len(missing) > 0, MissingShards: missing}
}

// classify sorts an introspection scatter's replies: a 200 contributes
// its generation and epoch to the vector, anything else is missing ("-").
func (c *Coordinator) classify(replies []shardReply) (missing []int, vec fleetVec) {
	vec = c.blankVec()
	for i, rep := range replies {
		if rep.failure() != "" {
			missing = append(missing, i)
		} else {
			vec.gens[i], vec.epochs[i] = rep.gen, rep.epoch
		}
	}
	return missing, vec
}

// outcome is one federated query's answer in the form both routes can
// write: a shard's 4xx to pass on as it came, or the merged body, or the
// status and error that took its place.
type outcome struct {
	relay  *server.ShardResult
	body   *server.CachedBody
	status int
	err    error
	fs     server.FedStatus
}

// write answers a GET with the outcome; the caller has set the vectors. A relayed or local error is sent plain, as a daemon sends one —
// the relayed one with the newline a frame does not carry.
func (o outcome) write(w http.ResponseWriter, r *http.Request) {
	switch {
	case o.relay != nil:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(o.relay.Status)
		w.Write(o.relay.Body)
		io.WriteString(w, "\n")
	case o.err != nil:
		server.WriteError(w, o.status, o.err, o.fs)
	default:
		server.WriteJSONBody(w, r, o.status, o.body)
	}
}

// batchResult is the outcome as one sub-result of a /v1/batch envelope.
func (o outcome) batchResult() server.BatchResult {
	if o.relay != nil {
		return server.BatchResult{Status: o.relay.Status, Body: o.relay.Body}
	}
	return server.NewBatchResult(o.body, o.status, o.err, o.fs)
}

// fleetVec is what a scatter heard from each shard, in shard order: the
// generation and the boot epoch of the snapshot it answered from, "-"
// for a shard that did not answer.
type fleetVec struct{ gens, epochs []string }

// set writes the vector as server.GenerationHeader and
// server.EpochHeader, each comma-joined in shard order. A client tells a
// restarted shard's snapshot from the one it replaced by the epoch, since
// a restarted shard counts generations from the start again.
func (v fleetVec) set(h http.Header) {
	h.Set(server.GenerationHeader, strings.Join(v.gens, ","))
	h.Set(server.EpochHeader, strings.Join(v.epochs, ","))
}

// shardAnswer is what one shard contributed to an exchange: its frame;
// or nothing, because it is down for the whole request (frame and err
// nil); or the error that names it, because its reply is not the frame
// asked for.
type shardAnswer struct {
	frame *server.ShardFrame
	err   error
}

// exchange asks every shard for its partials of the planned sub-queries —
// one /v1/shard request each, a GET being a batch of one — and sorts the
// replies: a frame of one result per query contributes its generation and
// the shard's epoch to the vector; a shard that is unreachable or answers
// anything but 200 is down for this request; a 200 that is anything else
// is malformed.
func (c *Coordinator) exchange(ctx context.Context, queries []server.BatchQuery) (answers []shardAnswer, vec fleetVec, down []int) {
	answers, vec = make([]shardAnswer, len(c.cfg.Shards)), c.blankVec()
	for s, rep := range c.scatter(ctx, server.AppendShardRequest(nil, queries)) {
		if rep.failure() != "" {
			down = append(down, s)
			continue
		}
		frame, err := readFrame(rep, len(queries))
		if err != nil {
			c.scatterMalformed.Add(1)
			answers[s].err = fmt.Errorf("shard %d: %w", s, err)
			continue
		}
		answers[s].frame = &frame
		vec.gens[s], vec.epochs[s] = strconv.FormatUint(frame.Generation, 10), rep.epoch
	}
	return answers, vec, down
}

// readFrame decodes a 200 reply to a request of n sub-queries; its
// results alias the reply's buffer.
func readFrame(rep shardReply, n int) (server.ShardFrame, error) {
	if rep.ctype != server.FrameContentType {
		return server.ShardFrame{}, fmt.Errorf("reply is %q, not a %s", rep.ctype, server.FrameContentType)
	}
	frame, err := server.ReadShardFrame(rep.body)
	if err == nil && len(frame.Results) != n {
		err = fmt.Errorf("%d results for %d queries", len(frame.Results), n)
	}
	if err != nil {
		return server.ShardFrame{}, fmt.Errorf("decoding frame: %w", err)
	}
	return frame, nil
}

// fold decides one query's outcome from the sub-th result of every
// shard's frame. A shard that was down for the whole request, or whose
// result is a 5xx, is missing for this query; a malformed reply fails it
// with a structured 500 naming the shard; the first 4xx is the query's
// fault the same way on every shard, so it is relayed as it came, once
// checked to be JSON; otherwise the plan merges the 200s, a 503 when
// there are none (the only condition that fails a query) and a structured
// 500 when a partial breaks the exchange. Results alias their replies'
// buffers; the merged body does not.
func (c *Coordinator) fold(p *server.Plan, sub int, answers []shardAnswer) outcome {
	var live []server.ShardBody
	var missing []int
	var relay *server.ShardResult
	var err error
	malformed := func(e error) {
		if err == nil {
			err = e
		}
	}
	for s, a := range answers {
		if a.err != nil {
			malformed(a.err)
			continue
		}
		if a.frame == nil {
			missing = append(missing, s)
			continue
		}
		switch res := &a.frame.Results[sub]; {
		case res.Status == http.StatusOK:
			live = append(live, server.ShardBody{Shard: s, Generation: a.frame.Generation,
				Sealed: a.frame.Sealed, Body: res.Body})
		case res.Status >= 500:
			missing = append(missing, s)
		case res.Status < 400 || !json.Valid(res.Body):
			c.scatterMalformed.Add(1)
			malformed(fmt.Errorf("shard %d: status %d result is not a JSON error to relay", s, res.Status))
		case relay == nil:
			relay = res
		}
	}
	fs := fedStatus(missing)
	switch {
	case err != nil:
		return outcome{status: http.StatusInternalServerError, err: err, fs: fs}
	case relay != nil:
		return outcome{relay: relay}
	case len(live) == 0:
		return outcome{status: http.StatusServiceUnavailable, err: fmt.Errorf("all %d shards unavailable", len(c.cfg.Shards)), fs: fs}
	}
	body, err := p.Merge(live, fs)
	if err != nil {
		c.scatterMalformed.Add(1)
		return outcome{status: http.StatusInternalServerError, err: err, fs: fs}
	}
	return outcome{body: &server.CachedBody{Plain: body}, status: http.StatusOK, fs: fs}
}

// writeOK writes an introspection 200 under the gathered vectors,
// gzip-encoded when the client negotiated it.
func (c *Coordinator) writeOK(w http.ResponseWriter, r *http.Request, vec fleetVec, v any) {
	vec.set(w.Header())
	body, err := json.Marshal(v)
	if err != nil {
		server.WriteError(w, http.StatusInternalServerError, err, server.FedStatus{})
		return
	}
	server.WriteJSONBody(w, r, http.StatusOK, &server.CachedBody{Plain: append(body, '\n')})
}

// decodeShard unmarshals one shard's introspection reply, surfacing a
// shard that answers anything else as a coordinator-internal error.
func decodeShard(rep shardReply, shard int, v any) error {
	if err := json.Unmarshal(rep.body, v); err != nil {
		return fmt.Errorf("shard %d: decoding response: %w", shard, err)
	}
	return nil
}

// handleQuery serves GET /v1/<name>: plan, exchange the query as a batch
// of one and write what fold makes of the frames, under the vector of the
// snapshots the shards answered from. Nothing is kept between requests: a
// repeated query scatters again, and each shard answers it from its own
// snapshot's cache. A parse failure never scatters, so it keeps the
// wrapper's no-information vector.
func (c *Coordinator) handleQuery(name string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		p, err := c.eps.Plan(name, q)
		if err != nil {
			server.WriteError(w, http.StatusBadRequest, err, server.FedStatus{})
			return
		}
		answers, vec, _ := c.exchange(r.Context(), []server.BatchQuery{{Endpoint: name, Params: q}})
		vec.set(w.Header())
		c.fold(p, 0, answers).write(w, r)
	}
}

// GET /healthz — always 200 while the coordinator serves; aggregates
// per-shard health and degrades on any unreachable or degraded shard.
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	replies := c.introspect(r.Context(), "/healthz")
	missing, vec := c.classify(replies)
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
	c.writeOK(w, r, vec, resp)
}

// GET /statsz — fleet-wide document/segment/cache sums plus each
// shard's own stats section verbatim.
func (c *Coordinator) handleStatsz(w http.ResponseWriter, r *http.Request) {
	replies := c.introspect(r.Context(), "/statsz")
	missing, vec := c.classify(replies)
	resp := StatszResponse{
		Generations: vec.gens,
		Scatter: ScatterStatsJSON{
			Requests:   c.scatterRequests.Load(),
			ReplyBytes: c.scatterBytes.Load(),
			Malformed:  c.scatterMalformed.Load(),
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
	c.writeOK(w, r, vec, resp)
}

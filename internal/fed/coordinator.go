package fed

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bivoc/internal/server"
)

// Config assembles a Coordinator.
type Config struct {
	// Addr is the TCP listen address ("127.0.0.1:8080"; ":0" picks a
	// free port, readable from Coordinator.Addr after Start).
	Addr string
	// Shards are the base URLs of the shard servers, in shard order
	// ("http://127.0.0.1:7001"). The order is part of the placement
	// contract: shard i must serve the documents ShardOf assigns to i
	// out of len(Shards). Required, at least one.
	Shards []string
	// ShardTimeout bounds each per-shard request of a scatter (default
	// 5s). A shard that exceeds it is treated as down for that query.
	ShardTimeout time.Duration
	// Confidence is the default association confidence when the query
	// does not pass one (mining.Confidence, as on the shard servers).
	Confidence float64
	// Client issues the shard requests (default: a dedicated pooled
	// client).
	Client *http.Client
}

// shardIdleConns is how many idle connections the default client keeps
// per shard: well past any concurrency one coordinator serves, so that a
// wave of requests finds the connections the last wave returned. A quiet
// coordinator lets go of them after IdleConnTimeout.
const shardIdleConns = 256

// maxReplyPresize caps the read buffer a shard's Content-Length may
// reserve up front; a longer reply grows the buffer as it arrives.
const maxReplyPresize = 1 << 20

func (c Config) shardTimeout() time.Duration {
	if c.ShardTimeout <= 0 {
		return 5 * time.Second
	}
	return c.ShardTimeout
}

// Coordinator serves the /v1 API by scattering every query to all
// shards and gathering on integer marginals. It holds no index of its
// own and no per-shard state between requests — a shard that comes back
// is answering queries again on its first healthy response, without any
// coordinator restart or rejoin step.
type Coordinator struct {
	cfg    Config
	eps    server.Endpoints
	client *http.Client
	mux    http.Handler
	slo    *server.SLORecorder
	life   server.Lifecycle

	// The scatter section of /statsz: /v1/shard requests sent, reply bytes
	// read, and replies (or partials inside them) rejected as malformed.
	scatterRequests, scatterBytes, scatterMalformed atomic.Uint64
}

// NewCoordinator validates the config and builds a coordinator.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("fed: Config.Shards is required")
	}
	for i, s := range cfg.Shards {
		if !strings.HasPrefix(s, "http://") && !strings.HasPrefix(s, "https://") {
			return nil, fmt.Errorf("fed: shard %d address %q must be a base URL", i, s)
		}
	}
	c := &Coordinator{
		cfg:    cfg,
		eps:    server.NewEndpoints(cfg.Confidence),
		client: cfg.Client,
		slo:    server.NewSLORecorder(),
	}
	if c.client == nil {
		// DisableCompression keeps shard replies plain: compressing and
		// decompressing scatters would burn CPU on both sides for
		// loopback-sized hops. Client-facing coordinator responses still
		// negotiate gzip on their own. The idle pool is sized per shard:
		// net/http's default of two would close, and the next wave dial
		// again, every connection past the second that concurrent requests
		// hand back.
		c.client = &http.Client{Transport: &http.Transport{
			DisableCompression:  true,
			MaxIdleConnsPerHost: shardIdleConns,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	c.mux = c.buildMux()
	return c, nil
}

// Start listens on Config.Addr and serves the federated API. It returns
// once the listener is live; use Addr for the bound address.
func (c *Coordinator) Start() error {
	if err := c.life.Start(c.cfg.Addr, c.mux); err != nil {
		return fmt.Errorf("fed: %w", err)
	}
	return nil
}

// Addr returns the bound listen address, or "" before Start.
func (c *Coordinator) Addr() string { return c.life.Addr() }

// Handler returns the HTTP API (also useful without Start, e.g. under
// httptest).
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Shutdown gracefully stops a Started coordinator; ctx bounds the drain
// of in-flight requests. The shard connections left idle are closed.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	if err := c.life.Shutdown(ctx); err != nil {
		return fmt.Errorf("fed: %w", err)
	}
	c.client.CloseIdleConnections()
	return nil
}

// shardReply is one shard's answer to a fan-out: an HTTP response
// (status, generation and epoch headers, content type, body) or a
// transport error.
type shardReply struct {
	status int
	gen    string
	epoch  string
	ctype  string
	body   []byte
	err    error
}

// failure says why this reply cannot be used — the shard is unreachable,
// timed out, or answered anything but 200, which on every route the
// coordinator asks means it could not answer; "" for a 200.
func (r shardReply) failure() string {
	switch {
	case r.err != nil:
		return r.err.Error()
	case r.status != http.StatusOK:
		return fmt.Sprintf("status %d", r.status)
	}
	return ""
}

// fanout runs ask against every shard at once, each bounded by
// ShardTimeout, and returns one reply per shard, in shard order.
func (c *Coordinator) fanout(ctx context.Context, ask func(ctx context.Context, base string) (*http.Request, error)) []shardReply {
	replies := make([]shardReply, len(c.cfg.Shards))
	var wg sync.WaitGroup
	for i, base := range c.cfg.Shards {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			sctx, cancel := context.WithTimeout(ctx, c.cfg.shardTimeout())
			defer cancel()
			req, err := ask(sctx, base)
			if err != nil {
				replies[i] = shardReply{err: err}
				return
			}
			replies[i] = c.roundTrip(req)
		}(i, base)
	}
	wg.Wait()
	return replies
}

// roundTrip performs one shard request and reads the whole reply, into a
// buffer sized from Content-Length when the shard declares one.
func (c *Coordinator) roundTrip(req *http.Request) shardReply {
	resp, err := c.client.Do(req)
	if err != nil {
		return shardReply{err: err}
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.Grow(int(min(max(resp.ContentLength, 0), maxReplyPresize)) + bytes.MinRead)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return shardReply{err: err}
	}
	return shardReply{status: resp.StatusCode, gen: resp.Header.Get(server.GenerationHeader),
		epoch: resp.Header.Get(server.EpochHeader), ctype: resp.Header.Get("Content-Type"), body: buf.Bytes()}
}

// scatter is the query path's one request form: the request frame
// (server.AppendShardRequest), POSTed to every shard's /v1/shard.
func (c *Coordinator) scatter(ctx context.Context, payload []byte) []shardReply {
	replies := c.fanout(ctx, func(ctx context.Context, base string) (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/shard", bytes.NewReader(payload))
		if err == nil {
			req.Header.Set("Content-Type", server.FrameContentType)
		}
		return req, err
	})
	c.scatterRequests.Add(uint64(len(replies)))
	for _, rep := range replies {
		c.scatterBytes.Add(uint64(len(rep.body)))
	}
	return replies
}

// introspect GETs path (/healthz or /statsz, which stay JSON) from every
// shard.
func (c *Coordinator) introspect(ctx context.Context, path string) []shardReply {
	return c.fanout(ctx, func(ctx context.Context, base string) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	})
}

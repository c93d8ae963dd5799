package fed

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
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
	// MaxFanout caps how many shard requests one scatter runs
	// concurrently (default: all shards at once).
	MaxFanout int
	// Confidence is the default association confidence when the query
	// does not pass one (default 0.95, mirroring the shard servers).
	Confidence float64
	// Client issues the shard requests (default: a dedicated pooled
	// client).
	Client *http.Client
	// CacheSize bounds the coordinator's generation-vector result cache
	// (entries). Default 256; negative disables coordinator caching.
	CacheSize int
	// CacheTTL bounds how long a scatter-observed generation vector
	// stays trusted for cache hits (default 1s). A smaller TTL trades
	// hit rate for tighter staleness under concurrent ingest; sealed
	// fleets never advance, so the only cost of the TTL there is one
	// refreshing scatter per quiet period.
	CacheTTL time.Duration
}

func (c Config) shardTimeout() time.Duration {
	if c.ShardTimeout <= 0 {
		return 5 * time.Second
	}
	return c.ShardTimeout
}

func (c Config) maxFanout() int {
	if c.MaxFanout <= 0 || c.MaxFanout > len(c.Shards) {
		return len(c.Shards)
	}
	return c.MaxFanout
}

func (c Config) cacheSize() int {
	if c.CacheSize == 0 {
		return 256
	}
	return c.CacheSize
}

func (c Config) cacheTTL() time.Duration {
	if c.CacheTTL <= 0 {
		return time.Second
	}
	return c.CacheTTL
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
	cache  *resultCache
	slo    *server.SLORecorder
	life   server.Lifecycle
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
		eps:    server.NewEndpoints(cfg.Confidence, false),
		client: cfg.Client,
		cache:  newResultCache(cfg.cacheSize(), cfg.cacheTTL()),
		slo:    server.NewSLORecorder(),
	}
	if c.client == nil {
		// DisableCompression keeps shard replies plain: the coordinator
		// re-marshals merged results anyway, so decompressing scatters
		// would burn shard CPU for loopback-sized hops. Client-facing
		// coordinator responses still negotiate gzip on their own.
		c.client = &http.Client{Transport: &http.Transport{DisableCompression: true}}
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
// of in-flight requests.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	if err := c.life.Shutdown(ctx); err != nil {
		return fmt.Errorf("fed: %w", err)
	}
	return nil
}

// shardReply is one shard's answer to a scatter: an HTTP response
// (status, generation header, body) or a transport error.
type shardReply struct {
	status int
	gen    string
	body   []byte
	err    error
}

// down reports whether this reply means the shard is unusable for the
// query: unreachable, timed out, or failing internally (5xx). Client
// errors (4xx) are not down — they are the query's fault and are
// relayed.
func (r shardReply) down() bool {
	return r.err != nil || r.status >= 500
}

// failure says why an introspection scatter (/healthz, /statsz, which
// answer 200 whatever the shards say) cannot use this reply; "" for a 200.
func (r shardReply) failure() string {
	switch {
	case r.err != nil:
		return r.err.Error()
	case r.status != http.StatusOK:
		return fmt.Sprintf("status %d", r.status)
	}
	return ""
}

// scatter sends the same request — GET <shard><path>, or a POST of the
// JSON payload when there is one — to every shard concurrently, at most
// MaxFanout in flight and each bounded by ShardTimeout, and returns one
// reply per shard, in shard order.
func (c *Coordinator) scatter(ctx context.Context, method, path string, payload []byte) []shardReply {
	replies := make([]shardReply, len(c.cfg.Shards))
	sem := make(chan struct{}, c.cfg.maxFanout())
	var wg sync.WaitGroup
	for i, base := range c.cfg.Shards {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			replies[i] = c.doShard(ctx, method, base+path, payload)
		}(i, base)
	}
	wg.Wait()
	return replies
}

// doShard performs one bounded shard request (GET with a nil payload,
// POST with a JSON body otherwise).
func (c *Coordinator) doShard(ctx context.Context, method, url string, payload []byte) shardReply {
	sctx, cancel := context.WithTimeout(ctx, c.cfg.shardTimeout())
	defer cancel()
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(sctx, method, url, rd)
	if err != nil {
		return shardReply{err: err}
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return shardReply{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return shardReply{err: err}
	}
	return shardReply{status: resp.StatusCode, gen: resp.Header.Get(server.GenerationHeader), body: body}
}

package fed

import (
	"net/http"
	"strings"
	"sync"
	"time"

	"bivoc/internal/lru"
	"bivoc/internal/server"
)

// resultCache is the coordinator-side result cache, keyed on (canonical
// query key, fleet snapshot identity). The shards' own caches live behind
// a scatter (~1 RTT per query; fed.self_ms plus fed.slowest_shard_ms in
// cmd/bivocbench's budget); this one sits in front of it, so a hit skips
// the scatter entirely (fed.cache_hit_ratio).
//
// Correctness rests on the identity: each shard's boot epoch and
// generation, in shard order (fleetVec.id). A generation alone counts
// publishes within one shard process and starts again at 0 when the
// shard restarts, so a shard restarted over other documents can reach
// the generation it had; its epoch tells the two snapshots apart. A
// cached body was merged from one exact identity; it may be served
// again only while that identity is still what the fleet would answer
// with. The coordinator holds no shard state, so it learns the current
// identity the only way it can — from scatters: every fully-live scatter
// result (no "-" gaps) refreshes the trusted identity for trustWindow. A
// hit requires the entry's identity to equal the trusted one and the
// trust to be fresh; any shard's generation advancing, or any shard
// restarting, changes the observed identity and every older entry stops
// matching — natural wholesale invalidation, exactly like the snapshot
// swap on a single node. Degraded vectors are never trusted and never
// cached: a body merged from a partial fleet must not outlive the
// partiality that produced it.
//
// The trust window bounds staleness between scatters: after a quiet
// period the first query always scatters, re-observing the vector, and
// only then do hits resume. Equivalence suites pin that a hit serves
// bytes identical to an uncached scatter.
type resultCache struct {
	entries *lru.Cache[string, resultEntry]

	mu           sync.Mutex
	trusted      string // last fully-live snapshot identity (fleetVec.id)
	trustedAt    time.Time
	hits, misses uint64
}

type resultEntry struct {
	id   string  // snapshot identity the body was merged from
	vec  vectors // its generation and epoch vectors in header form
	body *server.CachedBody
}

// trustWindow is how long a scatter-observed snapshot identity stays
// trusted for cache hits. Sealed fleets never advance, so the only cost of
// the window there is one refreshing scatter per quiet period.
const trustWindow = time.Second

// newResultCache returns a cache holding at most capacity bodies
// (capacity < 1 disables caching entirely: nothing is kept, so nothing
// hits).
func newResultCache(capacity int) *resultCache {
	return &resultCache{entries: lru.New[string, resultEntry](int64(capacity))}
}

// fleetVec is what a scatter heard from each shard, in shard order: the
// generation and the boot epoch of the snapshot it answered from, "-"
// for a shard that did not answer.
type fleetVec struct{ gens, epochs []string }

// full reports whether every shard answered (no "-" gaps) — the
// precondition for trusting or caching anything.
func (v fleetVec) full() bool {
	for _, g := range v.gens {
		if g == "-" {
			return false
		}
	}
	return len(v.gens) > 0
}

// id is the identity of the fleet snapshot a fully-live scatter read:
// "epoch:generation" per shard, comma-joined in shard order.
func (v fleetVec) id() string {
	var b strings.Builder
	for s, gen := range v.gens {
		if s > 0 {
			b.WriteByte(',')
		}
		b.WriteString(v.epochs[s])
		b.WriteByte(':')
		b.WriteString(gen)
	}
	return b.String()
}

// headers renders the vector in header form.
func (v fleetVec) headers() vectors {
	return vectors{gen: strings.Join(v.gens, ","), epoch: strings.Join(v.epochs, ",")}
}

// vectors is a fleetVec in header form: the values of
// server.GenerationHeader and server.EpochHeader, each comma-joined in
// shard order. A client tells a restarted shard's snapshot from the one
// it replaced by the epoch, since a restarted shard counts generations
// from the start again.
type vectors struct{ gen, epoch string }

// set writes both headers.
func (v vectors) set(h http.Header) {
	h.Set(server.GenerationHeader, v.gen)
	h.Set(server.EpochHeader, v.epoch)
}

// observe records the identity of a fully-live scatter (fleetVec.id),
// refreshing the trust window.
func (c *resultCache) observe(id string, now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.trusted = id
	c.trustedAt = now
}

// get returns the cached body for key if its identity matches the
// trusted one and the trust is fresh, with the vectors, in header form,
// of the snapshot the body was merged from.
func (c *resultCache) get(key string, now time.Time) (body *server.CachedBody, vec vectors, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.trusted != "" && now.Sub(c.trustedAt) <= trustWindow {
		if e, found := c.entries.Get(key); found && e.id == c.trusted {
			c.hits++
			return e.body, e.vec, true
		}
	}
	c.misses++
	return nil, vectors{}, false
}

// put stores a body merged from the fully-live snapshot id, whose
// vectors in header form are vec.
func (c *resultCache) put(key, id string, vec vectors, body *server.CachedBody) {
	c.entries.Put(key, resultEntry{id: id, vec: vec, body: body}, 1)
}

// stats returns the cumulative hit/miss counters and current size.
func (c *resultCache) stats() (hits, misses uint64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.entries.Len()
}

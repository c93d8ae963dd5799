package fed

import (
	"strings"
	"sync"
	"time"

	"bivoc/internal/lru"
	"bivoc/internal/server"
)

// resultCache is the coordinator-side result cache, keyed on (canonical
// query key, generation vector). The shards' own caches live behind a
// scatter (~1 RTT per query; fed.self_ms plus fed.slowest_shard_ms in
// cmd/bivocbench's budget); this one sits in front of it, so a hit skips
// the scatter entirely (fed.cache_hit_ratio).
//
// Correctness rests on the generation vector. A cached body was merged
// from one exact per-shard generation vector; it may be served again
// only while that vector is still what the fleet would answer with.
// The coordinator holds no shard state, so it learns the current vector
// the only way it can — from scatters: every fully-live scatter result
// (no "-" gaps) refreshes the trusted vector for trustWindow. A hit
// requires the entry's vector to equal the trusted vector and the trust
// to be fresh; any shard's generation advancing changes the observed
// vector and every older entry stops matching — natural wholesale
// invalidation, exactly like the snapshot swap on a single node.
// Degraded vectors are never trusted and never cached: a body merged
// from a partial fleet must not outlive the partiality that produced
// it.
//
// The trust window bounds staleness between scatters: after a quiet
// period the first query always scatters, re-observing the vector, and
// only then do hits resume. Equivalence suites pin that a hit serves
// bytes identical to an uncached scatter.
type resultCache struct {
	entries *lru.Cache[string, resultEntry]

	mu           sync.Mutex
	trusted      string // last fully-live generation vector, comma-joined
	trustedAt    time.Time
	hits, misses uint64
}

type resultEntry struct {
	vec  string // comma-joined generation vector the body was merged from
	body *server.CachedBody
}

// trustWindow is how long a scatter-observed generation vector stays
// trusted for cache hits. Sealed fleets never advance, so the only cost of
// the window there is one refreshing scatter per quiet period.
const trustWindow = time.Second

// newResultCache returns a cache holding at most capacity bodies
// (capacity < 1 disables caching entirely: nothing is kept, so nothing
// hits).
func newResultCache(capacity int) *resultCache {
	return &resultCache{entries: lru.New[string, resultEntry](int64(capacity))}
}

// fullVec reports whether vec has an entry from every shard (no "-"
// gaps) — the precondition for trusting or caching anything.
func fullVec(vec []string) bool {
	for _, g := range vec {
		if g == "-" {
			return false
		}
	}
	return len(vec) > 0
}

// observe records a fully-live generation vector seen by a scatter,
// refreshing the trust window. Called with the comma-joined vector.
func (c *resultCache) observe(vec string, now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.trusted = vec
	c.trustedAt = now
}

// get returns the cached body for key if its generation vector matches
// the trusted vector and the trust is fresh. The returned vec is the
// vector the body was merged from (== the trusted vector on a hit).
func (c *resultCache) get(key string, now time.Time) (body *server.CachedBody, vec string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.trusted != "" && now.Sub(c.trustedAt) <= trustWindow {
		if e, found := c.entries.Get(key); found && e.vec == c.trusted {
			c.hits++
			return e.body, e.vec, true
		}
	}
	c.misses++
	return nil, "", false
}

// put stores a body merged from the given fully-live vector.
func (c *resultCache) put(key, vec string, body *server.CachedBody) {
	c.entries.Put(key, resultEntry{vec: vec, body: body}, 1)
}

// stats returns the cumulative hit/miss counters and current size.
func (c *resultCache) stats() (hits, misses uint64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.entries.Len()
}

// joinVec renders a generation vector in header form.
func joinVec(vec []string) string { return strings.Join(vec, ",") }

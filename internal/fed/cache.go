package fed

import (
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
// generation, in shard order (snapshotID). A generation alone counts
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
	trusted      string // last fully-live snapshot identity (snapshotID)
	trustedAt    time.Time
	hits, misses uint64
}

type resultEntry struct {
	id   string // snapshot identity the body was merged from
	vec  string // its generation vector in header form
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

// observe records the identity of a fully-live scatter (snapshotID),
// refreshing the trust window.
func (c *resultCache) observe(id string, now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.trusted = id
	c.trustedAt = now
}

// get returns the cached body for key if its identity matches the
// trusted one and the trust is fresh, with the generation vector, in
// header form, the body was merged from.
func (c *resultCache) get(key string, now time.Time) (body *server.CachedBody, vec string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.trusted != "" && now.Sub(c.trustedAt) <= trustWindow {
		if e, found := c.entries.Get(key); found && e.id == c.trusted {
			c.hits++
			return e.body, e.vec, true
		}
	}
	c.misses++
	return nil, "", false
}

// put stores a body merged from the fully-live snapshot id, whose
// generation vector in header form is vec.
func (c *resultCache) put(key, id, vec string, body *server.CachedBody) {
	c.entries.Put(key, resultEntry{id: id, vec: vec, body: body}, 1)
}

// stats returns the cumulative hit/miss counters and current size.
func (c *resultCache) stats() (hits, misses uint64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.entries.Len()
}

// joinVec renders a generation vector in header form.
func joinVec(vec []string) string { return strings.Join(vec, ",") }

// snapshotID is the identity of the fleet snapshot a fully-live exchange
// read: "epoch:generation" per shard, comma-joined in shard order.
func snapshotID(genVec []string, answers []shardAnswer) string {
	var b strings.Builder
	for s, gen := range genVec {
		if s > 0 {
			b.WriteByte(',')
		}
		b.WriteString(answers[s].epoch)
		b.WriteByte(':')
		b.WriteString(gen)
	}
	return b.String()
}

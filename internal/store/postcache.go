package store

import (
	"sync/atomic"

	"bivoc/internal/lru"
)

// PostingsCache is the byte-budgeted LRU of decoded postings lists
// shared by a Store's mapped segments. Keys are (mapping, file offset)
// — immutable for the life of a mapping, so entries never go stale;
// superseded segments simply stop being asked for and age out. The
// cached []int slices are handed to queries as read-only views and are
// never recycled (a reader may hold one past eviction).
type PostingsCache struct {
	budget       int64
	lists        *lru.Cache[postKey, []int]
	hits, misses atomic.Uint64
}

// postKey identifies one decoded list: the mapping's id plus the
// list's absolute file offset.
type postKey struct {
	seg uint64
	off uint32
}

// postEntryOverhead approximates the per-entry bookkeeping cost (map
// slot + LRU node) charged against the budget on top of the slice.
const postEntryOverhead = 96

// DefaultPostingsBudget caps the decoded-postings cache of a Store that
// maps its segments: enough for the hot set of a multi-million document
// corpus while staying far below materializing it.
const DefaultPostingsBudget = 64 << 20

// NewPostingsCache returns a cache holding at most budget bytes of
// decoded postings (0 or negative = DefaultPostingsBudget).
func NewPostingsCache(budget int64) *PostingsCache {
	if budget <= 0 {
		budget = DefaultPostingsBudget
	}
	return &PostingsCache{budget: budget, lists: lru.New[postKey, []int](budget)}
}

// get returns the cached list and promotes it.
func (c *PostingsCache) get(key postKey) ([]int, bool) {
	posts, ok := c.lists.Get(key)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return posts, ok
}

// put publishes a freshly decoded list and returns the slice to serve:
// the one already cached when another goroutine decoded the same list
// first, so readers share one allocation, else the caller's. A list
// larger than the whole budget is served but not retained.
func (c *PostingsCache) put(key postKey, posts []int) []int {
	if cached, ok := c.lists.Get(key); ok {
		return cached
	}
	c.lists.Put(key, posts, int64(len(posts))*8+postEntryOverhead)
	return posts
}

// PostingsCacheStats is a point-in-time snapshot of the cache, and the
// postings_cache subsection of /statsz's store section as it is
// published: byte occupancy against the budget plus hit/miss counters.
type PostingsCacheStats struct {
	Bytes   int64  `json:"bytes"`
	Budget  int64  `json:"budget"`
	Entries int    `json:"entries"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
}

// StatsSnapshot returns the cache's current occupancy and hit counters.
func (c *PostingsCache) StatsSnapshot() PostingsCacheStats {
	return PostingsCacheStats{
		Bytes:   c.lists.Used(),
		Budget:  c.budget,
		Entries: c.lists.Len(),
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
	}
}

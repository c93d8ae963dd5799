package server

import "bivoc/internal/lru"

// lruCache memoizes marshaled query responses for ONE index snapshot.
// Each snapshot owns its own cache, so swapping the snapshot pointer
// invalidates every cached entry wholesale — there is no way for a hit
// to serve bytes computed over a different generation, because the
// cache a handler consults is reached *through* the snapshot it is
// answering from.
//
// Values are the final response bodies (*CachedBody), so a cached
// reply is byte-identical to the uncached one by construction — and the
// gzip form, derived lazily inside the CachedBody, is compressed at
// most once per cached body.
type lruCache struct {
	c *lru.Cache[string, *CachedBody]
}

// newLRUCache returns a cache holding at most capacity bodies
// (capacity < 1 disables caching: every get misses, puts are dropped).
func newLRUCache(capacity int) lruCache {
	return lruCache{lru.New[string, *CachedBody](int64(capacity))}
}

func (c lruCache) get(key string) (*CachedBody, bool) { return c.c.Get(key) }
func (c lruCache) put(key string, body *CachedBody)   { c.c.Put(key, body, 1) }
func (c lruCache) len() int                           { return c.c.Len() }

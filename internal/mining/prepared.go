package mining

import (
	"sort"
	"sync"
)

// prepared carries the query structures a sealed index precomputes so
// the serving hot path stops paying for them per request:
//
//   - per-category canonical concept lists with document frequencies and
//     per-field value lists, already in report order, making
//     ConceptsInCategory / FieldValues O(1) lookups (the /v1/concepts
//     discovery endpoint) instead of full map scans with a sort;
//   - memoized conjunction postings keyed by Dim.CanonicalLabel, so the
//     drill-down conjunctions analysts re-issue ("weak start ∧
//     outcome=reservation") intersect once per snapshot, up to a
//     budget proportional to the segment (see conjStore);
//   - whether position order is document-ID order (see idOrdered).
//
// The precomputed lists are immutable after prepare; the memo is guarded
// by mu because sealed indexes are queried from many server handlers at
// once.
type prepared struct {
	// catEntries holds each category's vocabulary in ConceptsInCategory
	// order (frequency desc, ties lexicographic). It deliberately carries
	// the df, not the postings: over a mapped backing, holding every
	// category's lists here would materialize the whole segment at Prepare
	// time — consumers that need the actual list (RelFreqMarginals) fetch
	// it through the backing on demand instead.
	catEntries map[string][]ConceptCount
	catNames   map[string][]string
	fieldVals  map[string][]string

	mu        sync.RWMutex
	conj      map[string][]int
	conjWords int // what conj holds, in conjCost units
	conjLimit int // conjBudget of the segment, fixed at Prepare

	orderOnce sync.Once
	ordered   bool
}

// The conjunction memo's budget. Every distinct conjunction a client
// sends adds an entry, and the operands are the client's to vary, so the
// memo is capped at a constant multiple of the segment it belongs to:
// conjWordsPerDoc 8-byte words per document (cmd/bivocbench's 2000-query
// pool fills 11 of them on a 5000-document segment), with a floor so a
// segment of a few documents still memoizes a working set.
const (
	conjWordsPerDoc = 64
	conjWordsFloor  = 1 << 14
)

func conjBudget(docs int) int { return max(conjWordsFloor, conjWordsPerDoc*docs) }

// conjCost is what one memo entry is charged against the budget, in
// 8-byte words: its postings, its key, and the map slot with the two
// headers. An empty result is not free — its key alone is as long as
// the client chose to make it.
func conjCost(key string, posts []int) int { return len(posts) + len(key)/8 + 8 }

// Prepare precomputes the sealed-index query structures above. It is
// idempotent and is called automatically by Seal; batch
// builders that assemble an Index by hand (core.RunEmailCategoryAnalysis)
// call it once indexing is done. Prepare must happen-before any
// concurrent queries, and a later Add drops the prepared state (the
// caches would be stale), returning the index to the uncached fast path.
func (ix *Index) Prepare() {
	if ix.prep != nil {
		return
	}
	p := &prepared{
		catEntries: make(map[string][]ConceptCount),
		catNames:   make(map[string][]string),
		fieldVals:  make(map[string][]string),
		conj:       make(map[string][]int),
		conjLimit:  conjBudget(ix.b.DocCount()),
	}
	ix.b.EachConcept(func(cat, canon string, df int) {
		p.catEntries[cat] = append(p.catEntries[cat], ConceptCount{Concept: canon, DF: df})
	})
	for cat, entries := range p.catEntries {
		sortReportOrder(entries)
		p.catNames[cat] = ConceptNames(entries)
	}
	ix.b.EachField(func(field, value string, _ int) {
		p.fieldVals[field] = append(p.fieldVals[field], value)
	})
	for _, vals := range p.fieldVals {
		sort.Strings(vals)
	}
	ix.prep = p
}

// idOrdered reports whether document positions are in strictly
// increasing ID order — what lets a limited drill-down stop at its first
// limit positions. Seal builds that order and records it. An index
// Prepared over a backing opened from disk finds out by one DocID walk
// the first time a limited drill-down asks, never at Prepare: that would
// put a per-document pass on the open path of a mapped segment. An index
// that is not Prepared, or whose IDs are out of order (built by hand
// with Add), reports false and drills down through the whole cell.
func (ix *Index) idOrdered() bool {
	p := ix.prep
	if p == nil {
		return false
	}
	p.orderOnce.Do(func() {
		prev := ""
		for i, n := 0, ix.b.DocCount(); i < n; i++ {
			id := ix.b.DocID(i)
			if i > 0 && id <= prev {
				return
			}
			prev = id
		}
		p.ordered = true
	})
	return p.ordered
}

// conjCached returns the memoized postings of a canonicalized
// conjunction, if already computed. The result is read-only.
func (p *prepared) conjCached(key string) ([]int, bool) {
	p.mu.RLock()
	posts, ok := p.conj[key]
	p.mu.RUnlock()
	return posts, ok
}

// conjStore memoizes a private copy of a conjunction's postings (res may
// be a scratch buffer) and returns the memoized slice; the first store
// wins, so concurrent misses share one canonical slice. Once the memo
// has reached its budget it stores nothing more and reports false — the
// caller answers from res, and the next request for that conjunction
// intersects again. There is no eviction: a panel of repeated
// conjunctions fits many times over, and what does not fit is not a
// panel.
func (p *prepared) conjStore(key string, res []int) ([]int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if posts, ok := p.conj[key]; ok {
		return posts, true
	}
	cost := conjCost(key, res)
	if p.conjWords+cost > p.conjLimit {
		return nil, false
	}
	posts := append([]int(nil), res...)
	p.conj[key] = posts
	p.conjWords += cost
	return posts, true
}

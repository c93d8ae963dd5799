package mining

import (
	"sort"
	"sync"

	"bivoc/internal/stats"
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
//     outcome=reservation") intersect once per snapshot;
//   - cached Wilson intervals for the marginal counts Associate keeps
//     re-deriving across tables served at one confidence level;
//   - whether position order is document-ID order (see idOrdered).
//
// The precomputed lists are immutable after prepare; the two memo maps
// are guarded by mu because sealed indexes are queried from many server
// handlers at once.
type prepared struct {
	catEntries map[string][]catEntry
	catNames   map[string][]string
	fieldVals  map[string][]string

	mu     sync.RWMutex
	conj   map[string][]int
	wilson map[wilsonKey]stats.Interval

	orderOnce sync.Once
	ordered   bool
}

// catEntry is one canonical concept of a category with its document
// frequency, held in ConceptsInCategory order (frequency desc, ties
// lexicographic). It deliberately carries the df, not the postings:
// over a mapped backing, holding every category's lists here would
// materialize the whole segment at Prepare time — consumers that need
// the actual list (RelFreqMarginals) fetch it through the backing on
// demand instead.
type catEntry struct {
	canon string
	df    int
}

// wilsonKey caches one marginal interval; the trial count n is the
// index's document count, fixed per index, so it is not part of the key.
type wilsonKey struct {
	successes  int
	confidence float64
}

// Prepare precomputes the sealed-index query structures above. It is
// idempotent and is called automatically by StreamIndex.Seal; batch
// builders that assemble an Index by hand (core.RunEmailCategoryAnalysis)
// call it once indexing is done. Prepare must happen-before any
// concurrent queries, and a later Add drops the prepared state (the
// caches would be stale), returning the index to the uncached fast path.
func (ix *Index) Prepare() {
	if ix.prep != nil {
		return
	}
	p := &prepared{
		catEntries: make(map[string][]catEntry),
		catNames:   make(map[string][]string),
		fieldVals:  make(map[string][]string),
		conj:       make(map[string][]int),
		wilson:     make(map[wilsonKey]stats.Interval),
	}
	ix.b.EachConcept(func(cat, canon string, df int) {
		p.catEntries[cat] = append(p.catEntries[cat], catEntry{canon: canon, df: df})
	})
	for cat, entries := range p.catEntries {
		sort.Slice(entries, func(i, j int) bool {
			if entries[i].df != entries[j].df {
				return entries[i].df > entries[j].df
			}
			return entries[i].canon < entries[j].canon
		})
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.canon
		}
		p.catNames[cat] = names
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
// increasing ID order — what StreamIndex.Seal and MergeSegments build,
// and what lets a limited drill-down stop at its first limit positions.
// Seal and MergeSegments record it as they build (sealedFrom). An index
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

// conjStore memoizes a conjunction's postings. posts must be a private
// copy (never a scratch buffer). First store wins so concurrent misses
// publish one canonical slice.
func (p *prepared) conjStore(key string, posts []int) {
	p.mu.Lock()
	if _, ok := p.conj[key]; !ok {
		p.conj[key] = posts
	}
	p.mu.Unlock()
}

// wilsonMarginal returns the Wilson interval for a marginal count,
// served from the sealed index's cache when prepared. z must equal
// stats.WilsonZ(confidence); results are bit-identical to
// stats.WilsonInterval for the same arguments.
func (ix *Index) wilsonMarginal(successes, n int, confidence, z float64) stats.Interval {
	p := ix.prep
	if p == nil {
		return stats.WilsonIntervalZ(successes, n, z)
	}
	key := wilsonKey{successes, confidence}
	p.mu.RLock()
	iv, ok := p.wilson[key]
	p.mu.RUnlock()
	if ok {
		return iv
	}
	iv = stats.WilsonIntervalZ(successes, n, z)
	p.mu.Lock()
	p.wilson[key] = iv
	p.mu.Unlock()
	return iv
}

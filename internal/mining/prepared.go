package mining

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// prepared carries the query structures every index precomputes when it
// is built, so the serving hot path stops paying for them per request:
//
//   - per-category canonical concept lists with document frequencies and
//     per-field value lists, already in report order, making
//     ConceptsInCategory / FieldValues O(1) lookups (the /v1/concepts
//     discovery endpoint) instead of full map scans with a sort;
//   - memoized conjunction postings keyed by Dim.CanonicalLabel, so the
//     drill-down conjunctions analysts re-issue ("weak start ∧
//     outcome=reservation") intersect once per snapshot, up to a
//     budget proportional to the segment (see conjStore);
//   - memoized tallies of leaf rows over field columns, under the same
//     lock and budget (see tally);
//   - per-document columns: one per field, holding each document's value
//     id, and one holding each document's time bucket (see fieldColumn
//     and timeColumn), which the association, relative-frequency and
//     trend kernels read instead of marking lists or hashing times.
//
// The precomputed lists are immutable after prepare; the memo is guarded
// by mu because an index is queried from many server handlers at once.
// The columns and the tallies are built the first time a query needs
// them, never at prepare: that would put a per-document pass on the open
// path of a mapped segment.
type prepared struct {
	// catEntries holds each category's vocabulary in ConceptsInCategory
	// order (frequency desc, ties lexicographic). It deliberately carries
	// the df, not the postings: over a mapped backing, holding every
	// category's lists here would materialize the whole segment at prepare
	// time — consumers that need the actual list (RelFreqMarginals) fetch
	// it through the backing on demand instead.
	catEntries map[string][]ConceptCount
	fieldVals  map[string][]string

	mu        sync.RWMutex
	conj      map[string][]int
	tallies   map[tallyKey][]int
	conjWords int // what conj and tallies hold, in conjCost and tallyCost units
	conjLimit int // conjBudget of the segment, fixed at prepare

	// fieldCols holds a column for each field of fieldVals, made at
	// prepare and filled on first use — except for a field with more
	// values than a column id can name, which is marked like any other
	// dimension.
	fieldCols map[string]*column
	timeCol   column
	// times are the segment's distinct document times, ascending: what
	// timeCol's ids index.
	times []int
	// columnsBuilt counts column builds, so that a test can see each is
	// built once however many queries race to it first.
	columnsBuilt atomic.Int32
}

// column holds one small integer per document position, built once.
type column struct {
	once sync.Once
	ids  []uint16
}

// columnIDs is how many distinct ids a column can hold.
const columnIDs = 1 << 16

// The conjunction memo's budget. Every distinct conjunction a client
// sends adds an entry, and the operands are the client's to vary, so the
// memo is capped at a constant multiple of the segment it belongs to:
// conjWordsPerDoc 8-byte words per document (cmd/bivocbench's 2000-query
// pool fills 11 of them on a 5000-document segment), with a floor so a
// segment of a few documents still memoizes a working set. Tallies are
// charged against the same budget (tallyCost).
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

// prepare returns the index over b with the query structures above: the
// one constructor Seal, FromBacking and Materialize share. It reads b's
// vocabulary through the Each* enumerations and decodes no postings.
func prepare(b Backing) *Index {
	p := &prepared{
		catEntries: make(map[string][]ConceptCount),
		fieldVals:  make(map[string][]string),
		fieldCols:  make(map[string]*column),
		conj:       make(map[string][]int),
		tallies:    make(map[tallyKey][]int),
		conjLimit:  conjBudget(b.DocCount()),
	}
	b.EachConcept(func(cat, canon string, df int) {
		p.catEntries[cat] = append(p.catEntries[cat], ConceptCount{Concept: canon, DF: df})
	})
	for _, entries := range p.catEntries {
		sortReportOrder(entries)
	}
	b.EachField(func(field, value string, _ int) {
		p.fieldVals[field] = append(p.fieldVals[field], value)
	})
	for field, vals := range p.fieldVals {
		sort.Strings(vals)
		if len(vals) < columnIDs {
			p.fieldCols[field] = new(column)
		}
	}
	return &Index{b: b, prep: p}
}

// fieldColumn reports whether d is a plain field dimension whose field
// has a column and, if so, returns the column and d's
// value id: ids[p] is 1 + the index in FieldValues of document p's value,
// 0 when p carries none. A value id of 0 means no document carries d's
// value (or its field), so d matches nothing — compare ids with it only
// when it is not 0.
func (ix *Index) fieldColumn(d Dim) (ids []uint16, value uint16, ok bool) {
	p := ix.prep
	if d.Field == "" || len(d.And) > 0 {
		return nil, 0, false
	}
	vals, carried := p.fieldVals[d.Field]
	if !carried {
		return nil, 0, true
	}
	col := p.fieldCols[d.Field]
	if col == nil {
		return nil, 0, false
	}
	k := sort.SearchStrings(vals, d.Value)
	if k == len(vals) || vals[k] != d.Value {
		return nil, 0, true
	}
	col.once.Do(func() {
		ids := make([]uint16, ix.b.DocCount())
		for i, v := range vals {
			for _, pos := range ix.b.FieldPostings(d.Field, v) {
				ids[pos] = uint16(i + 1)
			}
		}
		col.ids = ids
		p.columnsBuilt.Add(1)
	})
	return col.ids, uint16(k + 1), true
}

// timeColumn returns the index's distinct document times, ascending, and
// the column whose ids[p] indexes them with document p's time. ok is
// false on an index with more distinct times than a column id can name.
func (ix *Index) timeColumn() (times []int, ids []uint16, ok bool) {
	p := ix.prep
	p.timeCol.once.Do(func() {
		n := ix.b.DocCount()
		at := make([]int, n)
		for pos := range at {
			at[pos] = ix.b.DocTime(pos)
		}
		sorted := slices.Clone(at)
		slices.Sort(sorted)
		if sorted = slices.Compact(sorted); len(sorted) <= columnIDs {
			p.times = slices.Clone(sorted)
			ids := make([]uint16, n)
			for pos, t := range at {
				ids[pos] = uint16(sort.SearchInts(p.times, t))
			}
			p.timeCol.ids = ids
		}
		p.columnsBuilt.Add(1)
	})
	return p.times, p.timeCol.ids, p.timeCol.ids != nil
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

// tallyKey names a tally: a leaf row dimension, by its category,
// canonical form, field and value, and the field of the column it is
// tallied over. A lookup builds it from strings the caller already
// holds, so a hit allocates nothing.
type tallyKey struct {
	category, canonical, field, value, column string
}

// tallyCost is what one tally is charged against the memo's budget, in
// 8-byte words: its counts, its key's bytes, and the map slot with the
// headers.
func tallyCost(k tallyKey, t []int) int {
	return len(t) + (len(k.category)+len(k.canonical)+len(k.field)+len(k.value)+len(k.column))/8 + 16
}

// tally returns the tally of row, whose postings are posts, over the
// column ids of field: t[v] is how many of row's documents p have
// ids[p] == v — every count countValue would return for the field's
// values, from one walk of posts. A segment is immutable, so a tally
// is built once and memoized beside the conjunctions, under their lock
// and within their budget; past the budget it is built for the caller
// alone. tally returns nil, and the caller walks, for a conjunction row
// (its key would be its canonical label, which costs an allocation a
// lookup) and for a row of fewer documents than the field has values
// plus one, whose tally would cost more than the walk it saves.
func (ix *Index) tally(row Dim, posts []int, field string, ids []uint16) []int {
	p := ix.prep
	vals := p.fieldVals[field]
	if len(row.And) > 0 || len(vals)+1 > len(posts) {
		return nil
	}
	k := tallyKey{row.Category, row.Canonical, row.Field, row.Value, field}
	p.mu.RLock()
	t, ok := p.tallies[k]
	p.mu.RUnlock()
	if ok {
		return t
	}
	t = make([]int, len(vals)+1)
	for _, pos := range posts {
		t[ids[pos]]++
	}
	return p.tallyStore(k, t)
}

// tallyStore memoizes t under k unless the memo is over its budget, and
// returns the memoized tally — the first store wins, so racing builders
// share one — or t itself when nothing was kept. The key's strings are
// copied, so the memo does not pin the request they came from.
func (p *prepared) tallyStore(k tallyKey, t []int) []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if held, ok := p.tallies[k]; ok {
		return held
	}
	cost := tallyCost(k, t)
	if p.conjWords+cost > p.conjLimit {
		return t
	}
	k = tallyKey{strings.Clone(k.category), strings.Clone(k.canonical), strings.Clone(k.field), strings.Clone(k.value), strings.Clone(k.column)}
	p.tallies[k] = t
	p.conjWords += cost
	return t
}

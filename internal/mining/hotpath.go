package mining

import (
	"math/bits"
	"sort"
	"sync"
)

// gallopFactor is the size disparity at which a pair intersection
// switches from the linear merge to galloping (exponential probe +
// binary search) through the longer list. Below it the merge's
// branch-predictable scan wins; above it skipping dominates.
const gallopFactor = 16

// queryCtx is the scratch state of one query call. The Index itself
// stays read-only during queries (the serving layer answers from many
// handler goroutines over one sealed index), so every mutable buffer
// the set algebra needs lives here, pooled across calls: intersections
// accumulate into reusable []int buffers instead of per-call maps.
type queryCtx struct {
	free    [][]int   // reusable postings buffers
	lists   [][]int   // reusable leaf-list headers for k-way intersection
	margins [][]int   // reusable row and column headers of a table (see marginPostings)
	marks   []uint64  // per-document mark words (see docMarks); all zero between uses
	heads   []string  // reusable segment heads of a k-way merge by ID (see mergeByID); empty between uses
	keys    []conjKey // memo keys of the conjunctions this call resolved (see memoKey); empty between uses
}

// conjKey is the memo key of one conjunction a query call resolved,
// found again by the identity of the conjunction's operand slice.
type conjKey struct {
	and *Dim
	n   int
	key string
}

// markBits is the width of a document's mark word: the widest set of
// lists one mark-then-probe pass can tell apart.
const markBits = 64

var queryCtxPool = sync.Pool{New: func() any { return new(queryCtx) }}

func acquireQueryCtx() *queryCtx { return queryCtxPool.Get().(*queryCtx) }

func releaseQueryCtx(ctx *queryCtx) {
	clear(ctx.keys)
	ctx.keys = ctx.keys[:0]
	queryCtxPool.Put(ctx)
}

// memoKey returns the memo key of conjunction d, its CanonicalLabel,
// building it once per query call: a SegmentSet resolves the same Dim in
// every segment under one context, and the label allocates each time it
// is built. The same Dim is recognized by its operand slice, which the
// label depends on alone and no query mutates.
func (ctx *queryCtx) memoKey(d Dim) string {
	for _, k := range ctx.keys {
		if k.and == &d.And[0] && k.n == len(d.And) {
			return k.key
		}
	}
	key := d.CanonicalLabel()
	ctx.keys = append(ctx.keys, conjKey{and: &d.And[0], n: len(d.And), key: key})
	return key
}

// getBuf pops a reusable buffer (length 0) from the context.
func (ctx *queryCtx) getBuf() []int {
	if n := len(ctx.free); n > 0 {
		b := ctx.free[n-1]
		ctx.free = ctx.free[:n-1]
		return b[:0]
	}
	return nil
}

// putBuf returns a buffer for reuse by later resolutions in this call
// or, via the pool, by later calls.
func (ctx *queryCtx) putBuf(b []int) {
	if b == nil {
		return
	}
	ctx.free = append(ctx.free, b)
}

// docMarks returns one zeroed mark word per document of an n-document
// index. Marks are how a query counts many intersections in one pass
// without writing through postings: set bit j on every document of list
// j, then walk the other lists once and read off which marked lists each
// document belongs to. The scratch grows to the largest segment queried
// and is pooled with the context, so the caller must zero exactly the
// words it set — by re-walking the lists it marked from, which costs
// their length, not the segment's — before the context is released.
func (ctx *queryCtx) docMarks(n int) []uint64 {
	if cap(ctx.marks) < n {
		ctx.marks = make([]uint64, n)
	}
	return ctx.marks[:n]
}

// countCells fills ncell[i][j] = |rows[i] ∩ cols[j]| by walking each
// row's postings instead of one merge per cell; rowPosts and colPosts
// hold the rows' and the columns' postings. A column that is a plain
// field dimension whose field has a per-document column (fieldColumn)
// is read off the row's tally over that field (tally): one lookup once
// the segment has tallied the row, one walk of the row for all of the
// table's columns on that field before, and one walk per such column
// (countValue) for a row that gets no tally. Every other column is
// marked: bit j set on every document of its list, read off each row
// document in one more walk, and cleared by walking the list again. A
// table wider than markBits is counted markBits columns at a time.
func (ix *Index) countCells(ctx *queryCtx, ncell [][]int, rows []Dim, rowPosts [][]int, cols []Dim, colPosts [][]int) {
	for lo := 0; lo < len(cols); lo += markBits {
		hi := min(lo+markBits, len(cols))
		ix.countColumns(ctx, ncell, lo, rows, rowPosts, cols[lo:hi], colPosts[lo:hi])
	}
}

// countColumns is countCells over at most markBits columns, cols and
// colPosts, whose counts go to ncell's columns from lo.
func (ix *Index) countColumns(ctx *queryCtx, ncell [][]int, lo int, rows []Dim, rowPosts [][]int, cols []Dim, colPosts [][]int) {
	type fieldCell struct {
		field string
		ids   []uint16
		value uint16
		j     int
	}
	var cells [markBits]fieldCell
	fields := cells[:0]
	var marked uint64
	marks := ctx.docMarks(ix.b.DocCount())
	for j, d := range cols {
		if ids, value, ok := ix.fieldColumn(d); ok {
			if value != 0 {
				fields = append(fields, fieldCell{d.Field, ids, value, j})
			}
			continue
		}
		bit := uint64(1) << j
		marked |= bit
		for _, p := range colPosts[j] {
			marks[p] |= bit
		}
	}
	for i, posts := range rowPosts {
		row := ncell[i][lo:]
		if marked != 0 {
			for _, p := range posts {
				for w := marks[p]; w != 0; w &= w - 1 {
					row[bits.TrailingZeros64(w)]++
				}
			}
		}
		var field string // the field t tallies
		var t []int
		for _, f := range fields {
			if f.field != field {
				field, t = f.field, ix.tally(rows[i], posts, f.field, f.ids)
			}
			if t != nil {
				row[f.j] = t[f.value]
			} else {
				row[f.j] = countValue(f.ids, f.value, posts)
			}
		}
	}
	for j, posts := range colPosts {
		if marked&(1<<j) != 0 {
			for _, p := range posts {
				marks[p] = 0
			}
		}
	}
}

// countValue returns how many documents of posts hold value in a column:
// the walk a row takes when it gets no tally. It is a function of its own
// so that the loop runs in registers.
func countValue(ids []uint16, value uint16, posts []int) int {
	n := 0
	for _, p := range posts {
		if ids[p] == value {
			n++
		}
	}
	return n
}

// countIn returns how many documents of row, whose postings are posts,
// hold value in the column ids of field: a lookup in the row's tally, or
// the walk when the row gets none.
func (ix *Index) countIn(row Dim, posts []int, field string, ids []uint16, value uint16) int {
	if t := ix.tally(row, posts, field, ids); t != nil {
		return t[value]
	}
	return countValue(ids, value, posts)
}

// leafPostings returns the inverted list of a non-conjunction
// dimension. The result aliases backing-internal storage (or, on a
// mapped segment, its decoded-postings cache): read-only (see the
// postings contract on Index).
func leafPostings(b Backing, d Dim) []int {
	switch {
	case d.Field != "":
		return b.FieldPostings(d.Field, d.Value)
	case d.Canonical != "":
		return b.ConceptPostings(d.Category, d.Canonical)
	default:
		return b.CategoryPostings(d.Category)
	}
}

// resolve returns the sorted postings of any dimension. The result is
// read-only; owned reports whether it is a ctx scratch buffer the
// caller must return via putBuf once done (false when it aliases an
// index-internal list or a memoized conjunction).
func (ix *Index) resolve(ctx *queryCtx, d Dim) (posts []int, owned bool) {
	if len(d.And) == 0 {
		return leafPostings(ix.b, d), false
	}
	// Memoize the conjunction under its canonical label, so "a ∧ b",
	// "b ∧ a" and "a ∧ b ∧ a" share one entry.
	key := ctx.memoKey(d)
	if posts, ok := ix.prep.conjCached(key); ok {
		return posts, false
	}
	res, resOwned := ix.intersectFast(ctx, d.And)
	if stored, ok := ix.prep.conjStore(key, res); ok {
		if resOwned {
			ctx.putBuf(res)
		}
		return stored, false
	}
	return res, resOwned
}

// gatherLeafLists walks a conjunction tree and appends the inverted
// list of every leaf. Flattening is sound because intersection is
// associative: ∩(a, ∩(b, c)) = ∩(a, b, c).
func (ix *Index) gatherLeafLists(d Dim, lists [][]int) [][]int {
	if len(d.And) == 0 {
		return append(lists, leafPostings(ix.b, d))
	}
	for _, c := range d.And {
		lists = ix.gatherLeafLists(c, lists)
	}
	return lists
}

// intersectFast intersects the postings of a conjunction's children by
// k-way sorted merge, smallest lists first. Ownership as in resolve.
func (ix *Index) intersectFast(ctx *queryCtx, dims []Dim) (posts []int, owned bool) {
	lists := ctx.lists[:0]
	for _, d := range dims {
		lists = ix.gatherLeafLists(d, lists)
	}
	ctx.lists = lists[:0] // return the header buffer regardless of exit path
	for _, l := range lists {
		if len(l) == 0 {
			return nil, false
		}
	}
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	if len(lists) == 1 {
		return lists[0], false
	}
	cur := intersectInto(ctx.getBuf(), lists[0], lists[1])
	for _, l := range lists[2:] {
		if len(cur) == 0 {
			break
		}
		next := intersectInto(ctx.getBuf(), cur, l)
		ctx.putBuf(cur)
		cur = next
	}
	return cur, true
}

// intersectInto appends the sorted intersection of sorted lists a and b
// to dst and returns it. Linear merge for comparable sizes, galloping
// through the longer list when the sizes are badly skewed. dst must not
// alias a or b.
func intersectInto(dst, a, b []int) []int {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return dst
	}
	if len(b) >= gallopFactor*len(a) {
		j := 0
		for _, x := range a {
			j = gallopTo(b, j, x)
			if j == len(b) {
				break
			}
			if b[j] == x {
				dst = append(dst, x)
				j++
			}
		}
		return dst
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			dst = append(dst, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return dst
}

// gallopTo returns the smallest k in [lo, len(b)) with b[k] >= x, or
// len(b) if none, by exponential probing from lo followed by a binary
// search over the bracketed window. Amortized O(log gap) per advance,
// which is what makes skewed intersections sublinear in the long list.
func gallopTo(b []int, lo, x int) int {
	n := len(b)
	if lo >= n || b[lo] >= x {
		return lo
	}
	// Invariant: b[prev] < x.
	prev, step := lo, 1
	for {
		next := prev + step
		if next >= n {
			return prev + 1 + sort.SearchInts(b[prev+1:], x)
		}
		if b[next] >= x {
			return prev + 1 + sort.SearchInts(b[prev+1:next+1], x)
		}
		prev = next
		step <<= 1
	}
}

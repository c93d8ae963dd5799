package linker

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"bivoc/internal/warehouse"
)

// headLen is how many candidates a head ranks. The merge of a voc_batch
// job reads 81 % of its lists no further than their 4th entry, the
// frontier peek counted; a longer head costs heap and buys little.
const headLen = 4

// head is the ranked start of one (attribute, token text) candidate list
// before weighting: the first headLen candidates whose similarity clears
// the attribute's floor, in (sim desc, row asc) order, with their exact
// sims. Of the floor-clearing candidates it leaves out it keeps the best
// sim, out, and the best strictly below that, below (-Inf when there is
// none): what the prefix rule needs to know that a weighted head entry
// cannot tie a candidate it does not hold. It holds no pointer, so the
// cache's values cost the collector nothing to scan.
type head struct {
	rows       [headLen]warehouse.RowID
	sims       [headLen]float64
	out, below float64
	n          int
}

// ranksBefore is the head's order: sim desc, then row asc.
func ranksBefore(s float64, r warehouse.RowID, s2 float64, r2 warehouse.RowID) bool {
	return s > s2 || (s == s2 && r < r2)
}

// rankHead selects the head of a (token, attribute) memo in one pass,
// without sorting the memo.
func rankHead(m *attrMemo, floor float64) head {
	h := head{out: math.Inf(-1), below: math.Inf(-1)}
	for i, row := range m.rows {
		s := m.sims[i]
		if !(s >= floor) {
			continue // a NaN is on no list either
		}
		if h.n == headLen {
			last := headLen - 1
			if !ranksBefore(s, row, h.sims[last], h.rows[last]) {
				h.leaveOut(s)
				continue
			}
			h.leaveOut(h.sims[last])
			h.n--
		}
		j := h.n
		for ; j > 0 && ranksBefore(s, row, h.sims[j-1], h.rows[j-1]); j-- {
			h.rows[j], h.sims[j] = h.rows[j-1], h.sims[j-1]
		}
		h.rows[j], h.sims[j] = row, s
		h.n++
	}
	return h
}

// leaveOut records the sim of a candidate the head does not hold.
func (h *head) leaveOut(s float64) {
	switch {
	case s > h.out:
		h.out, h.below = s, h.out
	case s < h.out && s > h.below:
		h.below = s
	}
}

// sim returns the head's sim for a row it holds.
func (h *head) sim(row warehouse.RowID) (float64, bool) {
	for i := 0; i < h.n; i++ {
		if h.rows[i] == row {
			return h.sims[i], true
		}
	}
	return 0, false
}

// list writes into list[:0] the head weighted by w, ranked as the merge
// reads it, and reports whether the token's whole list goes on past it.
// It keeps the longest prefix the whole list is sure to start with.
// Weighting is monotone but not injective (w·a == w·b for some a ≠ b),
// so the few entries are re-ranked by weighted score, and an entry that
// scores exactly wOut = w·out, the best a left-out candidate can score,
// is kept only when it outranks every left-out candidate that ties it:
// those are the ones of sim out (rows after the head's last, when its
// last entry has sim out) unless w·below ties too.
func (h *head) list(list []listEntry, w float64) ([]listEntry, bool) {
	list = list[:0]
	for i := 0; i < h.n; i++ {
		if s := w * h.sims[i]; s > 0 {
			list = append(list, listEntry{h.rows[i], s})
		}
	}
	for i := 1; i < len(list); i++ {
		for j := i; j > 0 && ranksBefore(list[j].score, list[j].row, list[j-1].score, list[j-1].row); j-- {
			list[j], list[j-1] = list[j-1], list[j]
		}
	}
	wOut := w * h.out
	if !(wOut > 0) {
		return list, false // no left-out candidate is on the list
	}
	last := h.n - 1 // a head that leaves a candidate out is full
	tiesSafe := h.sims[last] == h.out && w*h.below != wOut
	for i, en := range list {
		if en.score > wOut || (tiesSafe && en.score == wOut && en.row <= h.rows[last]) {
			continue
		}
		return list[:i], true
	}
	return list, true
}

// headCache is an engine's heads, one per (attribute, token text), kept
// across link calls: a token text met again costs one read-locked map
// lookup. Heads are unweighted, so SetWeight and LearnWeights never stale
// one; a table that grows does, so each attribute records the row count
// its heads were ranked against, and bind drops them when it changes.
type headCache struct {
	mu    sync.RWMutex
	attrs []attrHeads // by ctxAttr.idx
}

type attrHeads struct {
	rows  atomic.Int64 // the table's Len() when the heads were ranked
	heads map[string]head
}

func newHeadCache(attrs int) *headCache {
	c := &headCache{attrs: make([]attrHeads, attrs)}
	for i := range c.attrs {
		c.attrs[i].heads = make(map[string]head)
	}
	return c
}

// dropStale drops an attribute's heads if its table's row count is not the
// one they were ranked against.
func (c *headCache) dropStale(idx, rows int) {
	a := &c.attrs[idx]
	if a.rows.Load() == int64(rows) {
		return
	}
	c.mu.Lock()
	clear(a.heads)
	a.rows.Store(int64(rows))
	c.mu.Unlock()
}

func (c *headCache) get(idx int, text string) (head, bool) {
	c.mu.RLock()
	h, ok := c.attrs[idx].heads[text]
	c.mu.RUnlock()
	return h, ok
}

// put keeps a head under a clone of its text: a token is a substring of
// its message, which the key would otherwise keep alive.
func (c *headCache) put(idx int, text string, h head) {
	c.mu.Lock()
	c.attrs[idx].heads[strings.Clone(text)] = h
	c.mu.Unlock()
}

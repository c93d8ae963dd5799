package linker

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"bivoc/internal/fuzzy"
	"bivoc/internal/phonetics"
	"bivoc/internal/warehouse"
)

// Attribute names one matchable column of one entity type (table).
type Attribute struct {
	Table  string
	Column string
}

func (a Attribute) String() string { return a.Table + "." + a.Column }

// Engine links annotated documents to warehouse entities.
type Engine struct {
	db *warehouse.DB
	// targets maps each token type to the attributes it may match — the
	// annotator-to-attribute routing of §IV.B.
	targets map[TokenType][]Attribute
	// weights holds w_jk: the weight of attribute j for entity type k
	// (Eqn 3). Initialized uniform; LearnWeights re-estimates them.
	weights map[Attribute]float64
	// attrOrder gives every configured attribute a dense engine-wide index
	// (ctxAttr.idx), in token-type then configuration order: the order the
	// per-token similarity memo is laid out in and LearnWeights sums in.
	attrOrder []Attribute
	// routes is the routing resolved against the database, one entry per
	// linked table, sorted by table name. Weights are not in it: they are
	// read when a call binds a table, so SetWeight and LearnWeights apply
	// to the next call.
	routes []tableRoute
	// heads caches each (attribute, token text)'s ranked head across
	// calls; nil on the naive view, which ranks every list whole.
	heads *headCache
	// naive is set only on the view Naive returns (see linkCtx.compute).
	naive bool
}

// Naive returns the engine's oracle view: the same tables, routing and
// weight map (LearnWeights and SetWeight on either move both), whose
// link calls run the same candidate generation and Threshold-Algorithm
// walk but keep no heads, rank every list whole, and score every pair
// with the recompute-everything similarity() instead of the
// warehouse-cached match features. No product path calls it; the
// equivalence tests hold one beside the engine it came from.
func (e *Engine) Naive() *Engine {
	view := *e
	view.heads = nil
	view.naive = true
	return &view
}

// Config declares the attribute routing for an engine.
type Config struct {
	// Targets routes token types to attributes. Every attribute must
	// exist in the database with a compatible MatchKind.
	Targets map[TokenType][]Attribute
}

// NewEngine validates the config against the database and returns an
// engine with uniform attribute weights.
func NewEngine(db *warehouse.DB, cfg Config) (*Engine, error) {
	e := &Engine{
		db:      db,
		targets: make(map[TokenType][]Attribute),
		weights: make(map[Attribute]float64),
	}
	perTable := map[string]int{}
	var types []TokenType
	for tt, attrs := range cfg.Targets {
		for _, at := range attrs {
			tab, ok := db.Table(at.Table)
			if !ok {
				return nil, fmt.Errorf("linker: unknown table %s", at.Table)
			}
			if col := schemaCol(tab.Schema(), at.Column); col < 0 {
				return nil, fmt.Errorf("linker: unknown column %s", at)
			}
			e.targets[tt] = append(e.targets[tt], at)
			perTable[at.Table]++
		}
		if len(attrs) > 0 {
			types = append(types, tt)
		}
	}
	if len(e.targets) == 0 {
		return nil, fmt.Errorf("linker: no attribute targets configured")
	}
	slices.Sort(types)
	for table := range perTable {
		e.routes = append(e.routes, tableRoute{table: table, tab: db.MustTable(table)})
	}
	slices.SortFunc(e.routes, func(a, b tableRoute) int { return cmp.Compare(a.table, b.table) })
	// Uniform initial weights per entity type. Walking the types in order
	// leaves each table's attributes grouped by token type.
	attrIndex := map[Attribute]int{}
	for _, tt := range types {
		for _, at := range e.targets[tt] {
			idx, seen := attrIndex[at]
			if !seen {
				idx = len(e.attrOrder)
				attrIndex[at] = idx
				e.attrOrder = append(e.attrOrder, at)
				e.weights[at] = 1 / float64(perTable[at.Table])
			}
			rt := e.route(at.Table)
			schema := rt.tab.Schema()
			kind := schema.Columns[schemaCol(schema, at.Column)].Match
			rt.attrs = append(rt.attrs, ctxAttr{
				idx: idx, tt: tt, kind: kind, floor: e.floorFor(kind), col: at.Column, tab: rt.tab,
			})
		}
	}
	e.heads = newHeadCache(len(e.attrOrder))
	return e, nil
}

// route returns the resolved routing of a table. A table the engine has
// no attribute in links nothing; one the database lacks is a caller's bug.
func (e *Engine) route(table string) *tableRoute {
	for i := range e.routes {
		if e.routes[i].table == table {
			return &e.routes[i]
		}
	}
	return &tableRoute{table: table, tab: e.db.MustTable(table)}
}

func schemaCol(s warehouse.Schema, name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// SetWeight overrides one attribute weight (tests and ablations).
func (e *Engine) SetWeight(at Attribute, w float64) { e.weights[at] = w }

// similarity scores token text against a stored attribute value using
// the column's declared MatchKind — the pluggable sim(t_i, e.A_j) of
// Eqn 2.
func similarity(kind warehouse.MatchKind, token, value string) float64 {
	token = strings.ToLower(token)
	value = strings.ToLower(value)
	switch kind {
	case warehouse.MatchName:
		// Blend orthographic similarity (Jaro-Winkler over the best value
		// word) with phonetic similarity: ASR errors substitute
		// similar-SOUNDING names (§IV.A.1), which can be orthographically
		// distant ("geoffrey"/"jeffrey").
		best := fuzzy.TokenSetSimilarityBest(token, value)
		tokPhones := phonetics.ToPhones(token)
		for _, w := range strings.Fields(value) {
			if ps := phonetics.PhoneSimilarity(tokPhones, phonetics.ToPhones(w)); ps > best {
				best = ps
			}
		}
		return best
	case warehouse.MatchDigits:
		return fuzzy.DigitSimilarity(token, value)
	case warehouse.MatchText:
		return fuzzy.DiceNGram(token, value, 3)
	case warehouse.MatchNumeric:
		tv, ok1 := ParseAmount(token)
		vv, ok2 := ParseAmount(value)
		if !ok1 || !ok2 {
			return 0
		}
		return fuzzy.NumericProximity(tv, vv, 0.5)
	default:
		if token == value {
			return 1
		}
		return 0
	}
}

// simFloor is the minimum per-token similarity contributing to a score,
// so junk tokens do not accumulate score. It is typed so that simFloor*0.4
// rounds as a float64 product does.
const simFloor float64 = 0.55

// floorFor returns the per-kind similarity floor. Digit evidence is
// inherently partial — the paper's example is 6 of 10 phone digits
// recognized, and fragments shorter still carry signal when combined
// with other entities — so the digit floor sits well below the name and
// text floor.
func (e *Engine) floorFor(kind warehouse.MatchKind) float64 {
	if kind == warehouse.MatchDigits {
		return simFloor * 0.4
	}
	return simFloor
}

// Match is one linked entity with its aggregate score.
type Match struct {
	Table string
	Row   warehouse.RowID
	Score float64
}

type listEntry struct {
	row   warehouse.RowID
	score float64 // weighted similarity for this token only
}

// buildLists produces per-token ranked lists for the bound table via the
// fuzzy indexes ("performing fuzzy match on each extracted token ...
// results in a ranked list of possible entities"). A token with no
// surviving candidates gets an empty list, which the TA merge treats as
// immediately exhausted. A token routed to one attribute starts as its
// weighted head, a prefix of its list the merge extends if it reads past
// it (linkCtx.entry); one routed to several, or on the naive view, is
// ranked whole.
func (ctx *linkCtx) buildLists() {
	for i := range ctx.toks {
		t := &ctx.toks[i]
		if len(t.cas) == 1 && ctx.e.heads != nil {
			t.list, t.partial = ctx.head(t.tf, &t.cas[0]).list(t.list, t.cas[0].weight)
			continue
		}
		ctx.rankAll(t)
	}
}

// rankAll ranks a token's whole list. Sorted access fills each (token,
// attribute) memo, so a duplicate token pays only for its own list.
func (ctx *linkCtx) rankAll(t *linkTok) {
	t.list, t.partial = t.list[:0], false
	for j := range t.cas {
		ca := &t.cas[j]
		m := ctx.candidates(t.tf, ca)
		for n, row := range m.rows {
			if m.sims[n] < ca.floor {
				continue
			}
			if w := ca.weight * m.sims[n]; w > 0 {
				t.list = append(t.list, listEntry{row, w})
			}
		}
	}
	if len(t.cas) > 1 {
		t.list = bestPerRow(t.list)
	}
	slices.SortFunc(t.list, func(a, b listEntry) int {
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		}
		return cmp.Compare(a.row, b.row)
	})
}

// entry returns entry i of a token's list, ranking the whole list first
// when i reaches past a partial one.
func (ctx *linkCtx) entry(t *linkTok, i int) (listEntry, bool) {
	if i == len(t.list) && t.partial {
		ctx.rankAll(t)
	}
	if i < len(t.list) {
		return t.list[i], true
	}
	return listEntry{}, false
}

// bestPerRow folds a list that several attributes appended to, each at
// most once per row, down to every row's best score.
func bestPerRow(list []listEntry) []listEntry {
	slices.SortFunc(list, func(a, b listEntry) int { return cmp.Compare(a.row, b.row) })
	out := list[:0]
	for _, en := range list {
		if n := len(out); n > 0 && out[n-1].row == en.row {
			out[n-1].score = max(out[n-1].score, en.score)
		} else {
			out = append(out, en)
		}
	}
	return out
}

// thresholdMerge runs the Threshold Algorithm (the Fagin-family merge of
// §IV.B) over per-token ranked lists: pop lists round-robin; for each
// newly seen entity compute its exact aggregate score by random access;
// stop when the k-th best score reaches the threshold τ = Σ_i (current
// list frontier scores), which bounds every unseen entity. A pop or a
// peek that reaches the end of a partial list ranks it whole first, so
// every position the merge reads holds what the whole list holds there.
// The result is the context's own: a caller copies what it returns.
func (ctx *linkCtx) thresholdMerge(toks []linkTok, table string, k int) []Match {
	if len(toks) == 0 {
		return nil
	}
	ctx.pos = append(ctx.pos[:0], make([]int, len(toks))...)
	pos := ctx.pos
	clear(ctx.seen)
	ctx.top = topK{k: k, heap: ctx.top.heap[:0]}
	for {
		advanced := false
		for li := range toks {
			entry, ok := ctx.entry(&toks[li], pos[li])
			if !ok {
				continue
			}
			pos[li]++
			advanced = true
			if !ctx.seen[entry.row] {
				ctx.seen[entry.row] = true
				ctx.top.push(Match{Table: table, Row: entry.row, Score: ctx.scoreEntity(toks, entry.row)})
			}
		}
		if !advanced {
			break
		}
		// Threshold: sum of frontier scores across lists.
		tau := 0.0
		exhausted := true
		for li := range toks {
			if entry, ok := ctx.entry(&toks[li], pos[li]); ok {
				tau += entry.score
				exhausted = false
			}
		}
		if exhausted {
			break
		}
		if ctx.top.full() && ctx.top.kth().Score >= tau {
			break
		}
	}
	return ctx.top.sorted()
}

// linkTable runs bind + build + merge for one table.
func (ctx *linkCtx) linkTable(rt *tableRoute, k int) []Match {
	ctx.bind(rt)
	ctx.buildLists()
	return ctx.thresholdMerge(ctx.toks, rt.table, k)
}

// LinkTable solves the single-type entity identification problem:
// top-k entities of one table for the document's tokens (Eqn 2).
func (e *Engine) LinkTable(tokens []Token, table string, k int) []Match {
	if k <= 0 {
		k = 1
	}
	ctx := e.begin(tokens)
	defer ctx.release()
	return append([]Match(nil), ctx.linkTable(e.route(table), k)...)
}

// Link solves the multi-type problem: top-k (entity, type) pairs across
// all configured tables (Eqn 3). Scores across tables are comparable
// because weights are normalized per type.
func (e *Engine) Link(tokens []Token, k int) []Match {
	if k <= 0 {
		k = 1
	}
	ctx := e.begin(tokens)
	defer ctx.release()
	var all []Match
	for i := range e.routes {
		all = append(all, ctx.linkTable(&e.routes[i], k)...)
	}
	return bestMatches(all, k)
}

// bestMatches ranks matches of several tables (Score desc, then Table and
// Row asc) and keeps the first k.
func bestMatches(all []Match, k int) []Match {
	slices.SortFunc(all, func(a, b Match) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.Table, b.Table), cmp.Compare(a.Row, b.Row))
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// LinkFullScan is the naive baseline: score every row of every table
// (no candidate generation, no threshold early-exit). Kept for the
// ablation benchmark quantifying the paper's efficiency claim.
func (e *Engine) LinkFullScan(tokens []Token, k int) []Match {
	if k <= 0 {
		k = 1
	}
	ctx := e.begin(tokens)
	defer ctx.release()
	var all []Match
	for i := range e.routes {
		rt := &e.routes[i]
		ctx.bind(rt)
		for row := 0; row < rt.tab.Len(); row++ {
			s := ctx.scoreEntity(ctx.toks, warehouse.RowID(row))
			if s > 0 {
				all = append(all, Match{Table: rt.table, Row: warehouse.RowID(row), Score: s})
			}
		}
	}
	return bestMatches(all, k)
}

// LinkIndividualBest is the per-entity-token baseline for the paper's
// combination claim ("As opposed to finding the identity based on
// individual entities we take all the partially recognized entities
// together"): each token votes for its single best entity and the
// entity with the most votes wins.
// Candidate lists are built once and sliced per token — the old
// implementation rebuilt every list from scratch per token, turning the
// vote into a quadratic pass.
func (e *Engine) LinkIndividualBest(tokens []Token, table string) (Match, bool) {
	ctx := e.begin(tokens)
	defer ctx.release()
	ctx.bind(e.route(table))
	ctx.buildLists()
	votes := map[warehouse.RowID]int{}
	for i := range ctx.toks {
		m := ctx.thresholdMerge(ctx.toks[i:i+1], table, 1)
		if len(m) == 1 {
			votes[m[0].Row]++
		}
	}
	bestRow, bestVotes := warehouse.RowID(-1), 0
	for row, v := range votes {
		if v > bestVotes || (v == bestVotes && row < bestRow) {
			bestRow, bestVotes = row, v
		}
	}
	if bestVotes == 0 {
		return Match{}, false
	}
	return Match{Table: table, Row: bestRow, Score: float64(bestVotes)}, true
}

package linker

import (
	"fmt"
	"sort"
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
	// simFloor discards candidate matches below this similarity so junk
	// tokens do not accumulate score.
	simFloor float64
	// attrOrder/attrIndex give every configured attribute a dense
	// engine-wide index, used by the per-call similarity memo (see
	// hotpath.go) to key cached scores without hashing Attribute structs.
	attrOrder []Attribute
	attrIndex map[Attribute]int
	// naive is set only on the view Naive returns (see sim).
	naive bool
}

// Naive returns the engine's oracle view: the same tables, routing and
// weight map (LearnWeights and SetWeight on either move both), whose
// link calls run the same candidate generation and Threshold-Algorithm
// walk but score every pair with the recompute-everything similarity()
// instead of the warehouse-cached match features. No product path calls
// it; the equivalence tests hold one beside the engine it came from.
func (e *Engine) Naive() *Engine {
	view := *e
	view.naive = true
	return &view
}

// Config declares the attribute routing for an engine.
type Config struct {
	// Targets routes token types to attributes. Every attribute must
	// exist in the database with a compatible MatchKind.
	Targets map[TokenType][]Attribute
	// SimFloor is the minimum per-token similarity contributing to a
	// score (default 0.55).
	SimFloor float64
}

// NewEngine validates the config against the database and returns an
// engine with uniform attribute weights.
func NewEngine(db *warehouse.DB, cfg Config) (*Engine, error) {
	e := &Engine{
		db:        db,
		targets:   make(map[TokenType][]Attribute),
		weights:   make(map[Attribute]float64),
		simFloor:  cfg.SimFloor,
		attrIndex: make(map[Attribute]int),
	}
	if e.simFloor <= 0 {
		e.simFloor = 0.55
	}
	perTable := map[string]int{}
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
	}
	if len(e.targets) == 0 {
		return nil, fmt.Errorf("linker: no attribute targets configured")
	}
	// Uniform initial weights per entity type.
	seen := map[Attribute]bool{}
	for _, attrs := range e.targets {
		for _, at := range attrs {
			if !seen[at] {
				seen[at] = true
				e.weights[at] = 1 / float64(perTable[at.Table])
				e.attrIndex[at] = len(e.attrOrder)
				e.attrOrder = append(e.attrOrder, at)
			}
		}
	}
	return e, nil
}

func schemaCol(s warehouse.Schema, name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Weight returns the current weight of an attribute.
func (e *Engine) Weight(at Attribute) float64 { return e.weights[at] }

// SetWeight overrides one attribute weight (tests and ablations).
func (e *Engine) SetWeight(at Attribute, w float64) { e.weights[at] = w }

// Tables returns the entity types the engine links against, sorted.
func (e *Engine) Tables() []string {
	set := map[string]bool{}
	for _, attrs := range e.targets {
		for _, at := range attrs {
			set[at.Table] = true
		}
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

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

// floorFor returns the per-kind similarity floor. Digit evidence is
// inherently partial — the paper's example is 6 of 10 phone digits
// recognized, and fragments shorter still carry signal when combined
// with other entities — so the digit floor sits well below the name and
// text floor.
func (e *Engine) floorFor(kind warehouse.MatchKind) float64 {
	if kind == warehouse.MatchDigits {
		return e.simFloor * 0.4
	}
	return e.simFloor
}

// Match is one linked entity with its aggregate score.
type Match struct {
	Table string
	Row   warehouse.RowID
	Score float64
}

// scoreEntity computes the full Eqn-3 score of an entity for the tokens
// through a one-shot link context (tests and single-scoring callers; the
// link entry points thread a shared context instead).
func (e *Engine) scoreEntity(tokens []Token, table string, row warehouse.RowID) float64 {
	ctx := e.newLinkCtx()
	return ctx.scoreEntity(tokens, ctx.resolveFeats(tokens), ctx.route(table), row)
}

// tokenList is one token's ranked candidate list within a table.
type tokenList struct {
	entries []listEntry // sorted by score desc
}

type listEntry struct {
	row   warehouse.RowID
	score float64 // weighted similarity for this token only
}

// buildLists produces per-token ranked lists for a table via the fuzzy
// indexes ("performing fuzzy match on each extracted token ... results
// in a ranked list of possible entities"). Lists are aligned with
// tokens — a token with no surviving candidates gets an empty list,
// which the TA merge treats as immediately exhausted — so callers like
// LinkIndividualBest can slice per token without rebuilding.
func (ctx *linkCtx) buildLists(tokens []Token, feats []*tokenFeats, route map[TokenType][]ctxAttr, table string) []tokenList {
	lists := make([]tokenList, len(tokens))
	for i := range tokens {
		best := map[warehouse.RowID]float64{}
		cas := route[tokens[i].Type]
		for j := range cas {
			ca := &cas[j]
			ctx.buf = ca.tab.CandidatesAppend(ctx.buf, ca.col, tokens[i].Text)
			for _, row := range ctx.buf {
				sim := ctx.sim(feats[i], ca, row)
				if sim < ca.floor {
					continue
				}
				w := ca.weight * sim
				if w > best[row] {
					best[row] = w
				}
			}
		}
		if len(best) == 0 {
			continue
		}
		tl := tokenList{entries: make([]listEntry, 0, len(best))}
		for row, s := range best {
			tl.entries = append(tl.entries, listEntry{row, s})
		}
		sort.Slice(tl.entries, func(i, j int) bool {
			if tl.entries[i].score != tl.entries[j].score {
				return tl.entries[i].score > tl.entries[j].score
			}
			return tl.entries[i].row < tl.entries[j].row
		})
		lists[i] = tl
	}
	return lists
}

// thresholdMerge runs the Threshold Algorithm (the Fagin-family merge of
// §IV.B) over per-token ranked lists: pop lists round-robin; for each
// newly seen entity compute its exact aggregate score by random access;
// stop when the k-th best score reaches the threshold τ = Σ_i (current
// list frontier scores), which bounds every unseen entity.
func (ctx *linkCtx) thresholdMerge(tokens []Token, feats []*tokenFeats, route map[TokenType][]ctxAttr, table string, lists []tokenList, k int) []Match {
	if len(lists) == 0 {
		return nil
	}
	pos := make([]int, len(lists))
	seen := map[warehouse.RowID]bool{}
	top := topK{k: k}
	for {
		advanced := false
		for li := range lists {
			if pos[li] >= len(lists[li].entries) {
				continue
			}
			entry := lists[li].entries[pos[li]]
			pos[li]++
			advanced = true
			if !seen[entry.row] {
				seen[entry.row] = true
				top.push(Match{Table: table, Row: entry.row, Score: ctx.scoreEntity(tokens, feats, route, entry.row)})
			}
		}
		if !advanced {
			break
		}
		// Threshold: sum of frontier scores across lists.
		tau := 0.0
		exhausted := true
		for li := range lists {
			if pos[li] < len(lists[li].entries) {
				tau += lists[li].entries[pos[li]].score
				exhausted = false
			}
		}
		if exhausted {
			break
		}
		if top.full() && top.kth().Score >= tau {
			break
		}
	}
	return top.sorted()
}

// linkTable runs build + merge for one table within a shared context.
func (ctx *linkCtx) linkTable(tokens []Token, feats []*tokenFeats, table string, k int) []Match {
	route := ctx.route(table)
	lists := ctx.buildLists(tokens, feats, route, table)
	return ctx.thresholdMerge(tokens, feats, route, table, lists, k)
}

// LinkTable solves the single-type entity identification problem:
// top-k entities of one table for the document's tokens (Eqn 2).
func (e *Engine) LinkTable(tokens []Token, table string, k int) []Match {
	if k <= 0 {
		k = 1
	}
	ctx := e.newLinkCtx()
	return ctx.linkTable(tokens, ctx.resolveFeats(tokens), table, k)
}

// Link solves the multi-type problem: top-k (entity, type) pairs across
// all configured tables (Eqn 3). Scores across tables are comparable
// because weights are normalized per type.
func (e *Engine) Link(tokens []Token, k int) []Match {
	if k <= 0 {
		k = 1
	}
	ctx := e.newLinkCtx()
	feats := ctx.resolveFeats(tokens)
	var all []Match
	for _, table := range e.Tables() {
		all = append(all, ctx.linkTable(tokens, feats, table, k)...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		if all[i].Table != all[j].Table {
			return all[i].Table < all[j].Table
		}
		return all[i].Row < all[j].Row
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
	ctx := e.newLinkCtx()
	feats := ctx.resolveFeats(tokens)
	var all []Match
	for _, table := range e.Tables() {
		route := ctx.route(table)
		tab := e.db.MustTable(table)
		for row := 0; row < tab.Len(); row++ {
			s := ctx.scoreEntity(tokens, feats, route, warehouse.RowID(row))
			if s > 0 {
				all = append(all, Match{Table: table, Row: warehouse.RowID(row), Score: s})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		if all[i].Table != all[j].Table {
			return all[i].Table < all[j].Table
		}
		return all[i].Row < all[j].Row
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
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
	ctx := e.newLinkCtx()
	feats := ctx.resolveFeats(tokens)
	route := ctx.route(table)
	lists := ctx.buildLists(tokens, feats, route, table)
	votes := map[warehouse.RowID]int{}
	for i := range tokens {
		m := ctx.thresholdMerge(tokens[i:i+1], feats[i:i+1], route, table, lists[i:i+1], 1)
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

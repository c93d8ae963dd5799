package annotate

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Elem is one position of a phrase pattern. Exactly one of Literal,
// Category or PoS-matching is used, checked in that priority order:
// a non-empty Literal matches the surface word; a non-empty Category
// matches the dictionary category of the tagged unit; otherwise PoS is
// compared (PoSAny matches everything).
type Elem struct {
	Literal  string
	Category string
	PoS      PoS
}

// Lit returns a literal-word element.
func Lit(w string) Elem { return Elem{Literal: strings.ToLower(w), PoS: PoSAny} }

// Pattern is a user-defined phrase pattern: when the element sequence
// matches consecutive tagged units, a concept with the given canonical
// label and semantic category is produced. The paper's examples:
//
//	please + VERB            → VERB[request]
//	just + NUMERIC + dollars → mention of good rate[value selling]
//	wonderful + rate         → mention of good rate[value selling]
type Pattern struct {
	Name     string
	Elems    []Elem
	Label    string // canonical concept text; "" = use matched surface
	Category string
}

func (e Elem) matches(tw taggedWord) bool {
	if e.Literal != "" {
		return tw.Word == e.Literal || tw.Canonical == e.Literal
	}
	if e.Category != "" {
		return tw.Category == e.Category
	}
	return e.PoS == PoSAny || e.PoS == tw.PoS
}

// Concept is one extracted unit of meaning: a canonical representation
// plus its semantic category and the token span it came from.
type Concept struct {
	Canonical string
	Category  string
	Start     int // index into the tagged-unit sequence
	End       int // one past the last tagged unit
}

// Engine bundles a dictionary and phrase patterns.
type Engine struct {
	dict     *Dictionary
	patterns []Pattern
	// byFirst indexes the patterns whose first element is a literal by
	// that literal; anyFirst lists the others (first element a category
	// or a PoS), which are tried at every position.
	byFirst  map[string][]int
	anyFirst []int
}

// NewEngine returns an annotation engine over the dictionary.
func NewEngine(dict *Dictionary) *Engine {
	if dict == nil {
		dict = NewDictionary()
	}
	return &Engine{dict: dict, byFirst: make(map[string][]int)}
}

// AddPattern registers a phrase pattern.
func (en *Engine) AddPattern(p Pattern) {
	i := len(en.patterns)
	en.patterns = append(en.patterns, p)
	switch {
	case len(p.Elems) == 0:
	case p.Elems[0].Literal != "":
		en.byFirst[p.Elems[0].Literal] = append(en.byFirst[p.Elems[0].Literal], i)
	default:
		en.anyFirst = append(en.anyFirst, i)
	}
}

// scratch is one annotation's working memory: the tagged units and the
// pattern hits. It is pooled, and cleared of strings before it goes back.
type scratch struct {
	tagged []taggedWord
	hits   []hit
}

// hit is one pattern matching the tagged units from start on.
type hit struct{ pattern, start int }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Annotate returns head followed by the concepts of words, a tokenized
// text (textproc.Words of a text, textproc.WordsOf of a transcript):
// dictionary concepts (one per tagged unit carrying a category) and
// phrase-pattern concepts, ordered by start position among themselves.
// Start and End index the tagged units of words. The result is a new
// slice of exactly that many concepts, nil when there are none: an
// indexed document keeps it, and the units and hits it is counted from
// live in pooled memory.
func (en *Engine) Annotate(head []Concept, words []string) []Concept {
	s := scratchPool.Get().(*scratch)
	tagged := en.dict.tag(s.tagged, words)
	hits := en.match(s.hits, tagged)
	n := len(head) + len(hits)
	for _, tw := range tagged {
		if tw.Category != "" {
			n++
		}
	}
	var out []Concept
	if n > 0 {
		out = append(make([]Concept, 0, n), head...)
	}
	// 1. Dictionary concepts.
	for i, tw := range tagged {
		if tw.Category != "" {
			canonical := tw.Canonical
			if canonical == "" {
				canonical = tw.Word
			}
			out = append(out, Concept{Canonical: canonical, Category: tw.Category, Start: i, End: i + 1})
		}
	}
	// 2. Phrase patterns.
	for _, h := range hits {
		p := en.patterns[h.pattern]
		label := p.Label
		if label == "" {
			parts := make([]string, len(p.Elems))
			for j := range p.Elems {
				parts[j] = tagged[h.start+j].Word
			}
			label = strings.Join(parts, " ")
		}
		out = append(out, Concept{Canonical: label, Category: p.Category, Start: h.start, End: h.start + len(p.Elems)})
	}
	sortConcepts(out[len(head):])
	clear(tagged)
	s.tagged, s.hits = tagged[:0], hits[:0]
	scratchPool.Put(s)
	return out
}

// match appends to hits every pattern match over tagged, in (pattern,
// start) order: the order in which trying every pattern at every
// position finds them. Only the patterns that can match at a position
// are tried there: those whose first literal is the unit's word or
// canonical form (Elem.matches reads both), and those whose first
// element is not a literal.
func (en *Engine) match(hits []hit, tagged []taggedWord) []hit {
	for i, tw := range tagged {
		hits = en.try(hits, en.anyFirst, tagged, i)
		hits = en.try(hits, en.byFirst[tw.Word], tagged, i)
		if tw.Canonical != "" && tw.Canonical != tw.Word {
			hits = en.try(hits, en.byFirst[tw.Canonical], tagged, i)
		}
	}
	slices.SortFunc(hits, func(a, b hit) int {
		return cmp.Or(cmp.Compare(a.pattern, b.pattern), cmp.Compare(a.start, b.start))
	})
	return hits
}

// try appends a hit at start for each of the patterns that matches the
// tagged units from there.
func (en *Engine) try(hits []hit, patterns []int, tagged []taggedWord, start int) []hit {
next:
	for _, p := range patterns {
		elems := en.patterns[p].Elems
		if start+len(elems) > len(tagged) {
			continue
		}
		for j, e := range elems {
			if !e.matches(tagged[start+j]) {
				continue next
			}
		}
		hits = append(hits, hit{p, start})
	}
	return hits
}

// sortConcepts orders concepts by start, category and canonical form.
// The sort is not stable, so the order of its input is part of its
// output: Annotate hands it the dictionary concepts by position, then
// the pattern hits by pattern and position.
func sortConcepts(cs []Concept) {
	slices.SortFunc(cs, func(a, b Concept) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), strings.Compare(a.Category, b.Category), strings.Compare(a.Canonical, b.Canonical))
	})
}

// Categories returns the distinct categories of a concept list, sorted.
func Categories(cs []Concept) []string {
	set := map[string]bool{}
	for _, c := range cs {
		set[c.Category] = true
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

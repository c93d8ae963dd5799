package annotate

import (
	"sort"
	"strings"
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

func (e Elem) matches(tw TaggedWord) bool {
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
}

// NewEngine returns an annotation engine over the dictionary.
func NewEngine(dict *Dictionary) *Engine {
	if dict == nil {
		dict = NewDictionary()
	}
	return &Engine{dict: dict}
}

// AddPattern registers a phrase pattern.
func (en *Engine) AddPattern(p Pattern) { en.patterns = append(en.patterns, p) }

// Annotate extracts all concepts from text: dictionary concepts (one per
// tagged unit carrying a category) and phrase-pattern concepts. Results
// are ordered by start position.
func (en *Engine) Annotate(text string) []Concept {
	tagged := en.dict.Tag(text)
	var out []Concept
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
	for _, p := range en.patterns {
		if len(p.Elems) == 0 {
			continue
		}
		for i := 0; i+len(p.Elems) <= len(tagged); i++ {
			ok := true
			for j, e := range p.Elems {
				if !e.matches(tagged[i+j]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			label := p.Label
			if label == "" {
				parts := make([]string, len(p.Elems))
				for j := range p.Elems {
					parts[j] = tagged[i+j].Word
				}
				label = strings.Join(parts, " ")
			}
			out = append(out, Concept{Canonical: label, Category: p.Category, Start: i, End: i + len(p.Elems)})
		}
	}
	sortConcepts(out)
	return out
}

func sortConcepts(cs []Concept) {
	sort.Slice(cs, func(i, j int) bool {
		a, b := cs[i], cs[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Category != b.Category {
			return a.Category < b.Category
		}
		return a.Canonical < b.Canonical
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

// Package annotate implements the annotation engine of §IV.C: a domain
// dictionary mapping surface expressions to canonical forms and semantic
// categories, a lightweight part-of-speech tagger, and a user-defined
// pattern engine that attaches communicative-intention labels to phrase
// patterns.
//
// The output of the engine is a list of Concepts: "we use the term
// 'concept' as a representation of the textual content in order to
// distinguish it from a simple keyword with the surface expression."
package annotate

import (
	"strings"

	"bivoc/internal/textproc"
)

// PoS is a coarse part-of-speech tag.
type PoS uint8

// Part-of-speech inventory; deliberately coarse, as in the paper's
// dictionary entries ("child seat [noun]", "NY [proper noun]").
const (
	PoSNoun PoS = iota
	PoSProperNoun
	PoSVerb
	PoSAdjective
	PoSAdverb
	PoSNumeric
	PoSPronoun
	PoSOther
	// PoSAny matches every tag in pattern elements.
	PoSAny
)

func (p PoS) String() string {
	switch p {
	case PoSNoun:
		return "noun"
	case PoSProperNoun:
		return "proper noun"
	case PoSVerb:
		return "verb"
	case PoSAdjective:
		return "adjective"
	case PoSAdverb:
		return "adverb"
	case PoSNumeric:
		return "numeric"
	case PoSPronoun:
		return "pronoun"
	case PoSAny:
		return "any"
	default:
		return "other"
	}
}

// Entry is one domain-dictionary record: a surface expression with its
// part of speech, canonical form and semantic category, e.g.
//
//	child seat [noun] → child seat [vehicle feature]
//	NY [proper noun] → New York [place]
//	master card [noun] → credit card [payment methods]
type Entry struct {
	Surface   string
	PoS       PoS
	Canonical string
	Category  string
}

// Dictionary holds entries indexed by their (lowercase) surface form.
// Multi-word surfaces are supported with longest-match-first lookup via
// a word-level trie, so Tag probes spans by walking child pointers
// instead of joining candidate word windows into throwaway strings.
type Dictionary struct {
	entries map[string]Entry
	root    *trieNode
}

// trieNode is one word position in the surface trie. Terminal nodes
// carry the entry and its stored key (the words re-joined with single
// spaces), which becomes the TaggedWord surface without another join.
type trieNode struct {
	children map[string]*trieNode
	entry    *Entry
	key      string
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{entries: make(map[string]Entry), root: &trieNode{}}
}

// Add inserts or replaces an entry.
func (d *Dictionary) Add(e Entry) {
	key := strings.ToLower(strings.TrimSpace(e.Surface))
	if key == "" {
		return
	}
	d.entries[key] = e
	// Split on single spaces (not Fields): a key with irregular internal
	// whitespace keeps an empty-word path component no tokenizer output
	// can follow, staying unreachable from Tag exactly as it always was.
	node := d.root
	for _, w := range strings.Split(key, " ") {
		if node.children == nil {
			node.children = make(map[string]*trieNode)
		}
		next, ok := node.children[w]
		if !ok {
			next = &trieNode{}
			node.children[w] = next
		}
		node = next
	}
	stored := d.entries[key]
	node.entry = &stored
	node.key = key
}

// verbLexicon and friends seed the PoS tagger. Conversational call-centre
// English is dominated by a small closed verb set; suffix rules catch the
// rest.
var verbLexicon = map[string]bool{
	"be": true, "is": true, "am": true, "are": true, "was": true, "were": true,
	"have": true, "has": true, "had": true, "do": true, "does": true, "did": true,
	"want": true, "need": true, "like": true, "book": true, "make": true,
	"get": true, "give": true, "take": true, "pay": true, "call": true,
	"help": true, "know": true, "tell": true, "confirm": true, "check": true,
	"cancel": true, "change": true, "hold": true, "charge": true, "send": true,
	"go": true, "come": true, "say": true, "see": true, "find": true,
	"reserve": true, "rent": true, "pick": true, "drop": true, "return": true,
	"leave": true, "switch": true, "disconnect": true, "activate": true,
	"deactivate": true, "recharge": true, "work": true, "solve": true,
	"resolve": true, "offer": true, "provide": true, "save": true,
}

var adjectiveLexicon = map[string]bool{
	"good": true, "great": true, "wonderful": true, "fantastic": true,
	"excellent": true, "nice": true, "bad": true, "poor": true, "high": true,
	"low": true, "cheap": true, "expensive": true, "rude": true,
	"helpful": true, "new": true, "latest": true, "full": true, "mid": true,
	"luxury": true, "available": true, "free": true, "best": true,
	"terrible": true, "pathetic": true, "slow": true, "wrong": true,
}

var pronounLexicon = map[string]bool{
	"i": true, "you": true, "he": true, "she": true, "it": true, "we": true,
	"they": true, "me": true, "him": true, "her": true, "us": true,
	"them": true, "my": true, "your": true, "this": true, "that": true,
}

// TagWord assigns a coarse PoS to one (lowercase) word, consulting the
// dictionary first (its entries carry curated tags).
func (d *Dictionary) TagWord(w string) PoS {
	if e, ok := d.entries[w]; ok {
		return e.PoS
	}
	switch {
	case textproc.IsNumeric(w):
		return PoSNumeric
	case pronounLexicon[w]:
		return PoSPronoun
	case verbLexicon[w]:
		return PoSVerb
	case adjectiveLexicon[w]:
		return PoSAdjective
	case strings.HasSuffix(w, "ly") && len(w) > 3:
		return PoSAdverb
	case strings.HasSuffix(w, "ing") && len(w) > 4,
		strings.HasSuffix(w, "ed") && len(w) > 3:
		return PoSVerb
	default:
		return PoSNoun
	}
}

// TaggedWord is one token with its tag and dictionary annotation.
type TaggedWord struct {
	Word      string // lowercase surface
	PoS       PoS
	Canonical string // canonical form if a dictionary entry covers it
	Category  string // semantic category from the dictionary
}

// Tag tokenizes and tags text, applying longest-match dictionary lookup
// so multi-word surfaces ("master card") collapse to one tagged unit
// carrying the canonical form ("credit card") and category.
func (d *Dictionary) Tag(text string) []TaggedWord {
	words := textproc.Words(text)
	if len(words) == 0 {
		return nil
	}
	out := make([]TaggedWord, 0, len(words))
	i := 0
	for i < len(words) {
		// Walk the trie from position i, remembering the deepest terminal
		// node — the longest dictionary surface starting here.
		node := d.root
		var best *trieNode
		bestSpan := 0
		for j := i; j < len(words); j++ {
			next := node.children[words[j]]
			if next == nil {
				break
			}
			node = next
			if node.entry != nil {
				best, bestSpan = node, j-i+1
			}
		}
		if best != nil {
			e := best.entry
			out = append(out, TaggedWord{
				Word:      best.key,
				PoS:       e.PoS,
				Canonical: e.Canonical,
				Category:  e.Category,
			})
			i += bestSpan
			continue
		}
		w := words[i]
		out = append(out, TaggedWord{Word: w, PoS: d.TagWord(w)})
		i++
	}
	return out
}

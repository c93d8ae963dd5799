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
// a word-level trie, so tagging probes spans by walking child pointers
// instead of joining candidate word windows into throwaway strings.
type Dictionary struct {
	root *trieNode
}

// trieNode is one word position in the surface trie. Terminal nodes
// carry the entry and its stored key (the words re-joined with single
// spaces), which becomes the tagged unit's surface without another join.
type trieNode struct {
	children map[string]*trieNode
	entry    *Entry
	key      string
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{root: &trieNode{}}
}

// Add inserts or replaces an entry.
func (d *Dictionary) Add(e Entry) {
	key := strings.ToLower(strings.TrimSpace(e.Surface))
	if key == "" {
		return
	}
	// Split on single spaces (not Fields): a key with irregular internal
	// whitespace keeps an empty-word path component no tokenizer output
	// can follow, staying unreachable from tagging exactly as it always
	// was.
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
	node.entry = &e
	node.key = key
}

// The PoS tagger's closed word lists. Conversational call-centre English
// is dominated by a small closed verb set; suffix rules catch the rest.
var (
	pronounWords = []string{
		"i", "you", "he", "she", "it", "we", "they", "me", "him", "her", "us",
		"them", "my", "your", "this", "that",
	}
	verbWords = []string{
		"be", "is", "am", "are", "was", "were", "have", "has", "had", "do", "does", "did",
		"want", "need", "like", "book", "make", "get", "give", "take", "pay", "call",
		"help", "know", "tell", "confirm", "check", "cancel", "change", "hold", "charge", "send",
		"go", "come", "say", "see", "find", "reserve", "rent", "pick", "drop", "return",
		"leave", "switch", "disconnect", "activate", "deactivate", "recharge", "work", "solve",
		"resolve", "offer", "provide", "save",
	}
	adjectiveWords = []string{
		"good", "great", "wonderful", "fantastic", "excellent", "nice", "bad", "poor", "high",
		"low", "cheap", "expensive", "rude", "helpful", "new", "latest", "full", "mid",
		"luxury", "available", "free", "best", "terrible", "pathetic", "slow", "wrong",
	}
)

// lexicon is the three word lists as one map, so a word costs one
// lookup. A word on two lists takes the first of pronoun, verb,
// adjective: later lists overwrite.
var lexicon = func() map[string]PoS {
	m := make(map[string]PoS)
	for _, w := range adjectiveWords {
		m[w] = PoSAdjective
	}
	for _, w := range verbWords {
		m[w] = PoSVerb
	}
	for _, w := range pronounWords {
		m[w] = PoSPronoun
	}
	return m
}()

// tagWord assigns a coarse PoS to one (lowercase) word that no
// dictionary surface covers: numbers, then the lexicon, then suffixes.
func tagWord(w string) PoS {
	if textproc.IsNumeric(w) {
		return PoSNumeric
	}
	if p, ok := lexicon[w]; ok {
		return p
	}
	switch {
	case strings.HasSuffix(w, "ly") && len(w) > 3:
		return PoSAdverb
	case strings.HasSuffix(w, "ing") && len(w) > 4,
		strings.HasSuffix(w, "ed") && len(w) > 3:
		return PoSVerb
	default:
		return PoSNoun
	}
}

// taggedWord is one tagged unit: a token, or the tokens of a multi-word
// dictionary surface, with its tag and dictionary annotation.
type taggedWord struct {
	Word      string // lowercase surface
	PoS       PoS
	Canonical string // canonical form if a dictionary entry covers it
	Category  string // semantic category from the dictionary
}

// tag appends the tagged units of words (lowercase tokens) to dst,
// applying longest-match dictionary lookup so multi-word surfaces
// ("master card") collapse to one tagged unit carrying the canonical
// form ("credit card") and category. A word the trie does not start at
// is tagged by tagWord: the trie holds every single-word surface, so no
// other lookup could find it an entry.
func (d *Dictionary) tag(dst []taggedWord, words []string) []taggedWord {
	for i := 0; i < len(words); {
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
			dst = append(dst, taggedWord{
				Word:      best.key,
				PoS:       e.PoS,
				Canonical: e.Canonical,
				Category:  e.Category,
			})
			i += bestSpan
			continue
		}
		w := words[i]
		dst = append(dst, taggedWord{Word: w, PoS: tagWord(w)})
		i++
	}
	return dst
}

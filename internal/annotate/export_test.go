package annotate

import (
	"slices"
	"sort"
	"strings"

	"bivoc/internal/textproc"
)

// RefAnnotate is annotation as it stood before the engine took tokens
// and found patterns by their first word: tokenize the text, tag each
// word the trie does not cover by the dictionary, then the pronoun, verb
// and adjective lists in turn, try every pattern at every position, and
// sort with sort.Slice. The equivalence tests hold Annotate to it.
func RefAnnotate(en *Engine, text string) []Concept {
	tagged := refTag(en.dict, textproc.Words(text))
	var out []Concept
	for i, tw := range tagged {
		if tw.Category != "" {
			canonical := tw.Canonical
			if canonical == "" {
				canonical = tw.Word
			}
			out = append(out, Concept{Canonical: canonical, Category: tw.Category, Start: i, End: i + 1})
		}
	}
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
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Category != b.Category {
			return a.Category < b.Category
		}
		return a.Canonical < b.Canonical
	})
	return out
}

// refTag is the longest-match trie walk with refTagWord for the words it
// does not cover.
func refTag(d *Dictionary, words []string) []taggedWord {
	var out []taggedWord
	for i := 0; i < len(words); {
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
			out = append(out, taggedWord{Word: best.key, PoS: e.PoS, Canonical: e.Canonical, Category: e.Category})
			i += bestSpan
			continue
		}
		out = append(out, taggedWord{Word: words[i], PoS: refTagWord(d, words[i])})
		i++
	}
	return out
}

// refTagWord tags one word: a single-word dictionary entry, a number,
// then each word list in priority order, then the suffix rules.
func refTagWord(d *Dictionary, w string) PoS {
	if n := d.root.children[w]; n != nil && n.entry != nil {
		return n.entry.PoS
	}
	switch {
	case textproc.IsNumeric(w):
		return PoSNumeric
	case slices.Contains(pronounWords, w):
		return PoSPronoun
	case slices.Contains(verbWords, w):
		return PoSVerb
	case slices.Contains(adjectiveWords, w):
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

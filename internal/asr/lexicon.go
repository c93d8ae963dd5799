// Package asr is the automatic-speech-recognition substrate of BIVoC.
//
// The paper's engine (§IV.A.1) is an HMM/GMM large-vocabulary recognizer
// trained on 210 hours of call-centre audio. Audio and acoustic models
// are not reproducible, so this package substitutes the *error process*:
// a reference utterance is converted to its phone string through a shared
// pronunciation lexicon, the phone string is corrupted by an articulatory
// noisy channel (substitutions biased within sound classes, deletions,
// insertions, cross-talk bursts), and a real token-passing Viterbi beam
// decoder with an interpolated N-gram language model converts the noisy
// phones back into words.
//
// Because decoding goes through a lexicon of confusable pronunciations
// and a language model, the transcripts exhibit the phenomena the paper
// reports: similar-sounding names substituted for each other, partial
// digit strings, function words hallucinated by the LM — at an overall
// word error rate calibrated to Table I (45% speech, 65% names, 45%
// numbers).
package asr

import (
	"errors"
	"fmt"
	"strings"

	"bivoc/internal/phonetics"
)

// WordClass labels lexicon entries by the entity class Table I scores.
type WordClass uint8

// Word classes.
const (
	ClassGeneric WordClass = iota
	ClassName              // person given/surnames — hardest per Table I
	ClassDigit             // spoken digit words
	ClassPlace             // locations; scored with generic speech
)

func (c WordClass) String() string {
	switch c {
	case ClassName:
		return "name"
	case ClassDigit:
		return "digit"
	case ClassPlace:
		return "place"
	default:
		return "generic"
	}
}

// Lexicon maps words to pronunciations and owns the decoding trie.
type Lexicon struct {
	words   []string
	classes []WordClass
	prons   [][]phonetics.Phone
	index   map[string]int32
	// trie over phones: nodes store child edges and word ids that end
	// there (homophones share a final node).
	nodes []trieNode
}

// trieEdge is one labeled child link. Edges are kept sorted by phone so
// that decoding expansions are deterministic — beam ties between
// homophones must break the same way on every run.
type trieEdge struct {
	phone phonetics.Phone
	next  int32
}

type trieNode struct {
	edges []trieEdge // sorted by phone
	words []int32    // lexicon ids of words whose pronunciation ends here
}

// child returns the node reached by phone p, or -1.
func (n *trieNode) child(p phonetics.Phone) int32 {
	lo, hi := 0, len(n.edges)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.edges[mid].phone < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.edges) && n.edges[lo].phone == p {
		return n.edges[lo].next
	}
	return -1
}

// addChild inserts a new edge keeping the slice sorted, returning the
// new child's id.
func (l *Lexicon) addChild(node int32, p phonetics.Phone) int32 {
	next := int32(len(l.nodes))
	l.nodes = append(l.nodes, trieNode{})
	edges := l.nodes[node].edges
	pos := len(edges)
	for i, e := range edges {
		if e.phone > p {
			pos = i
			break
		}
	}
	edges = append(edges, trieEdge{})
	copy(edges[pos+1:], edges[pos:])
	edges[pos] = trieEdge{phone: p, next: next}
	l.nodes[node].edges = edges
	return next
}

// NewLexicon returns an empty lexicon with a trie root.
func NewLexicon() *Lexicon {
	return &Lexicon{
		index: make(map[string]int32),
		nodes: []trieNode{{}},
	}
}

// Add inserts a word with the given class, deriving its pronunciation
// from the rule-based G2P. Duplicate adds are ignored (first class wins).
// Words that produce no phones (pure digits, punctuation) are rejected.
func (l *Lexicon) Add(word string, class WordClass) error {
	word = strings.ToLower(word)
	if _, ok := l.index[word]; ok {
		return nil
	}
	pron := phonetics.ToPhones(word)
	if len(pron) == 0 {
		return fmt.Errorf("asr: word %q has no pronunciation", word)
	}
	id := int32(len(l.words))
	l.words = append(l.words, word)
	l.classes = append(l.classes, class)
	l.prons = append(l.prons, pron)
	l.index[word] = id

	// Insert into the trie.
	node := int32(0)
	for _, p := range pron {
		next := l.nodes[node].child(p)
		if next < 0 {
			next = l.addChild(node, p)
		}
		node = next
	}
	l.nodes[node].words = append(l.nodes[node].words, id)
	return nil
}

// AddAll inserts all words with the class, skipping unpronounceable ones.
func (l *Lexicon) AddAll(words []string, class WordClass) {
	for _, w := range words {
		_ = l.Add(w, class) // unpronounceable entries are simply absent
	}
}

// Contains reports whether word is in the lexicon.
func (l *Lexicon) Contains(word string) bool {
	_, ok := l.index[strings.ToLower(word)]
	return ok
}

// ClassOfWord returns the class of a word, or ClassGeneric if absent.
func (l *Lexicon) ClassOfWord(word string) WordClass {
	if id, ok := l.index[strings.ToLower(word)]; ok {
		return l.classes[id]
	}
	return ClassGeneric
}

// Pronunciation returns the phone sequence of word, with ok=false for
// out-of-lexicon words.
func (l *Lexicon) Pronunciation(word string) ([]phonetics.Phone, bool) {
	id, ok := l.index[strings.ToLower(word)]
	if !ok {
		return nil, false
	}
	return l.prons[id], true
}

// Phones converts a word sequence to its phone string, returning an
// error on the first out-of-lexicon word. Utterance generators call this
// to produce the channel input.
func (l *Lexicon) Phones(words []string) ([]phonetics.Phone, error) {
	var out []phonetics.Phone
	for _, w := range words {
		p, ok := l.Pronunciation(w)
		if !ok {
			return nil, errors.New("asr: out-of-lexicon word " + w)
		}
		out = append(out, p...)
	}
	return out, nil
}

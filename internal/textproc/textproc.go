// Package textproc provides the text primitives shared by every BIVoC
// stage: tokenization, sentence splitting, normalization, stopword
// filtering and vocabulary counting.
//
// VoC text is noisy (§III.A of the paper): inconsistent casing, missing
// punctuation, digits embedded in words, multilingual fragments. The
// tokenizer therefore works on rune classes rather than a fixed grammar,
// keeps number tokens intact (they carry entity information such as
// telephone numbers and amounts), and preserves intra-word apostrophes
// ("didn't") while splitting all other punctuation.
package textproc

import (
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Token is a single token with its surface form and position.
type Token struct {
	Text  string // surface form as it appeared (after NFC-style lowering if requested)
	Start int    // byte offset of the first byte in the source
	End   int    // byte offset one past the last byte
	Kind  TokenKind
}

// TokenKind classifies a token by its rune content.
type TokenKind int

// Token kinds. Numbers and alphanumerics are kept distinct because the
// entity annotators treat them differently (a pure number can be a phone
// number or amount; an alphanumeric is usually a code or shorthand).
const (
	KindWord TokenKind = iota
	KindNumber
	KindAlphaNum
	KindPunct
)

func (k TokenKind) String() string {
	switch k {
	case KindWord:
		return "word"
	case KindNumber:
		return "number"
	case KindAlphaNum:
		return "alphanum"
	case KindPunct:
		return "punct"
	default:
		return "unknown"
	}
}

// Tokenize splits s into word, number, alphanumeric and punctuation
// tokens. Apostrophes inside words are retained; all other punctuation
// becomes its own token. Whitespace never appears in the output.
func Tokenize(s string) []Token {
	n := countTokens(s, true)
	if n == 0 {
		return nil
	}
	toks := make([]Token, 0, n)
	for i := 0; ; {
		start, end, kind := nextToken(s, i)
		if start == end {
			return toks
		}
		toks = append(toks, Token{Text: s[start:end], Start: start, End: end, Kind: kind})
		i = end
	}
}

// countTokens returns how many tokens s holds, with or without its
// punctuation: the exact size of the slice Tokenize or Words fills.
func countTokens(s string, punct bool) int {
	n := 0
	for i := 0; ; {
		start, end, kind := nextToken(s, i)
		if start == end {
			return n
		}
		if punct || kind != KindPunct {
			n++
		}
		i = end
	}
}

// nextToken scans the first token at or after byte i of s and returns its
// bounds and kind; start == end means s holds no further token.
func nextToken(s string, i int) (start, end int, kind TokenKind) {
	n := len(s)
	for i < n {
		r, size := decodeRune(s[i:])
		switch {
		case unicode.IsSpace(r):
			i += size
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			start := i
			hasLetter := false
			hasDigit := false
			for i < n {
				r2, sz := decodeRune(s[i:])
				if unicode.IsLetter(r2) {
					hasLetter = true
				} else if unicode.IsDigit(r2) {
					hasDigit = true
				} else if r2 == '\'' && hasLetter {
					// Keep the apostrophe only if a letter follows.
					r3, _ := decodeRune(s[i+sz:])
					if !unicode.IsLetter(r3) {
						break
					}
				} else {
					break
				}
				i += sz
			}
			kind := KindWord
			if hasDigit && hasLetter {
				kind = KindAlphaNum
			} else if hasDigit {
				kind = KindNumber
			}
			return start, i, kind
		default:
			return i, i + size, KindPunct
		}
	}
	return n, n, KindPunct
}

// decodeRune wraps utf8 decoding; invalid bytes come back as the
// replacement rune with size 1, which keeps byte positions consistent on
// arbitrary noisy input.
func decodeRune(s string) (rune, int) {
	if s == "" {
		return 0, 0
	}
	return utf8.DecodeRuneInString(s)
}

// Words returns the lowercase surface forms of all word and alphanumeric
// tokens in s, dropping punctuation. Number tokens are retained because
// digit strings carry entity information in VoC text.
func Words(s string) []string {
	out := make([]string, 0, countTokens(s, false))
	for i := 0; ; {
		start, end, kind := nextToken(s, i)
		if start == end {
			return out
		}
		if kind != KindPunct {
			out = append(out, strings.ToLower(s[start:end]))
		}
		i = end
	}
}

// SplitSentences splits s on sentence-final punctuation (. ! ?) followed
// by whitespace or end of string, returning trimmed non-empty sentences.
// Abbreviation handling is intentionally minimal: VoC text rarely has
// well-formed abbreviations and downstream stages are robust to
// over-splitting.
func SplitSentences(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '.' || c == '!' || c == '?' {
			end := i + 1
			for end < len(s) && (s[end] == '.' || s[end] == '!' || s[end] == '?') {
				end++
			}
			if end >= len(s) || s[end] == ' ' || s[end] == '\n' || s[end] == '\t' || s[end] == '\r' {
				sent := strings.TrimSpace(s[start:end])
				if sent != "" {
					out = append(out, sent)
				}
				start = end
				i = end - 1
			}
		}
	}
	if tail := strings.TrimSpace(s[start:]); tail != "" {
		out = append(out, tail)
	}
	return out
}

// NormalizeWhitespace collapses runs of whitespace to single spaces and
// trims the ends.
func NormalizeWhitespace(s string) string {
	return strings.Join(strings.Fields(s), " ")
}

// IsNumeric reports whether s consists solely of ASCII digits (at least
// one).
func IsNumeric(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// DigitCount returns the number of ASCII digits in s.
func DigitCount(s string) int {
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] >= '0' && s[i] <= '9' {
			n++
		}
	}
	return n
}

// stopwords is a compact English function-word list. Conversational VoC
// is dominated by these; relevancy analysis and classifier features
// exclude them.
var stopwords = map[string]bool{
	"a": true, "an": true, "the": true, "and": true, "or": true, "but": true,
	"if": true, "then": true, "else": true, "of": true, "to": true, "in": true,
	"on": true, "at": true, "by": true, "for": true, "with": true, "from": true,
	"up": true, "down": true, "out": true, "is": true, "am": true, "are": true,
	"was": true, "were": true, "be": true, "been": true, "being": true,
	"do": true, "does": true, "did": true, "have": true, "has": true, "had": true,
	"i": true, "you": true, "he": true, "she": true, "it": true, "we": true,
	"they": true, "me": true, "him": true, "her": true, "us": true, "them": true,
	"my": true, "your": true, "his": true, "its": true, "our": true, "their": true,
	"this": true, "that": true, "these": true, "those": true, "there": true,
	"what": true, "which": true, "who": true, "whom": true, "as": true,
	"will": true, "would": true, "can": true, "could": true, "shall": true,
	"should": true, "may": true, "might": true, "must": true, "not": true,
	"no": true, "so": true, "too": true, "very": true, "just": true,
	"about": true, "into": true, "over": true, "under": true, "again": true,
	"all": true, "any": true, "both": true, "each": true, "more": true,
	"most": true, "other": true, "some": true, "such": true, "only": true,
	"own": true, "same": true, "than": true, "how": true, "when": true,
	"where": true, "why": true, "because": true, "while": true, "during": true,
}

// IsStopword reports whether the lowercase word w is an English function
// word.
func IsStopword(w string) bool { return stopwords[w] }

// ContentWords returns the lowercase non-stopword word tokens of s.
func ContentWords(s string) []string {
	ws := Words(s)
	out := ws[:0]
	for _, w := range ws {
		if !IsStopword(w) {
			out = append(out, w)
		}
	}
	return out
}

// Vocabulary counts token frequencies across a corpus.
type Vocabulary struct {
	counts map[string]int
	total  int
}

// NewVocabulary returns an empty vocabulary.
func NewVocabulary() *Vocabulary {
	return &Vocabulary{counts: make(map[string]int)}
}

// Add increments the count of each word.
func (v *Vocabulary) Add(words ...string) {
	for _, w := range words {
		v.counts[w]++
		v.total++
	}
}

// Count returns the frequency of w.
func (v *Vocabulary) Count(w string) int { return v.counts[w] }

// Total returns the number of tokens added.
func (v *Vocabulary) Total() int { return v.total }

// Size returns the number of distinct words.
func (v *Vocabulary) Size() int { return len(v.counts) }

// TopN returns the n most frequent words, ties broken lexicographically
// so the result is deterministic. This drives the dictionary-building
// workflow of §IV.C, where frequent domain terms are surfaced for a
// domain expert to categorize.
func (v *Vocabulary) TopN(n int) []string {
	type wc struct {
		w string
		c int
	}
	all := make([]wc, 0, len(v.counts))
	for w, c := range v.counts {
		all = append(all, wc{w, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].w < all[j].w
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].w
	}
	return out
}

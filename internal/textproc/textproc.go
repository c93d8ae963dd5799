// Package textproc provides the text primitives shared by every BIVoC
// stage: word tokenization, digit tests and stopword filtering.
//
// VoC text is noisy (§III.A of the paper): inconsistent casing, missing
// punctuation, digits embedded in words, multilingual fragments. The
// tokenizer therefore works on rune classes rather than a fixed grammar,
// keeps number tokens intact (they carry entity information such as
// telephone numbers and amounts), and preserves intra-word apostrophes
// ("didn't") while splitting all other punctuation.
package textproc

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// countWords returns how many word tokens s holds: the exact size of
// the slice Words fills.
func countWords(s string) int {
	n := 0
	for i := 0; ; {
		start, end, word := nextToken(s, i)
		if start == end {
			return n
		}
		if word {
			n++
		}
		i = end
	}
}

// nextToken scans the first token at or after byte i of s and returns its
// bounds and whether it is a word (letters and digits, with apostrophes
// inside it) rather than one rune of punctuation; start == end means s
// holds no further token.
func nextToken(s string, i int) (start, end int, word bool) {
	n := len(s)
	for i < n {
		r, size := decodeRune(s[i:])
		switch {
		case unicode.IsSpace(r):
			i += size
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			start := i
			hasLetter := false
			for i < n {
				r2, sz := decodeRune(s[i:])
				if unicode.IsLetter(r2) {
					hasLetter = true
				} else if r2 == '\'' && hasLetter {
					// Keep the apostrophe only if a letter follows.
					r3, _ := decodeRune(s[i+sz:])
					if !unicode.IsLetter(r3) {
						break
					}
				} else if !unicode.IsDigit(r2) {
					break
				}
				i += sz
			}
			return start, i, true
		default:
			return i, i + size, false
		}
	}
	return n, n, false
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
	out := make([]string, 0, countWords(s))
	for i := 0; ; {
		start, end, word := nextToken(s, i)
		if start == end {
			return out
		}
		if word {
			out = append(out, strings.ToLower(s[start:end]))
		}
		i = end
	}
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

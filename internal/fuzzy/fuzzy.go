// Package fuzzy implements the attribute similarity measures plugged into
// the BIVoC data-linking engine (§IV.B of the paper). The scoring
// framework there is measure-agnostic — "the best similarity measure
// available for specific attributes can be readily plugged into our
// architecture" — so this package provides the measures the engine
// plugs in: Jaro-Winkler for short names, character n-gram overlap for
// longer strings, digit-sequence similarity for phone numbers and
// amounts, and token-set similarity for multi-word attributes.
//
// All similarities are in [0, 1] with 1 meaning identical.
package fuzzy

import (
	"math/bits"
	"strings"
)

// Jaro returns the Jaro similarity of a and b.
func Jaro(a, b string) float64 {
	la, lb := len(a), len(b)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := la
	if lb > window {
		window = lb
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	// Tokens are short words; stack buffers keep the per-comparison match
	// flags allocation-free on the linking hot path.
	var aBuf, bBuf [64]bool
	var aMatch, bMatch []bool
	if la > len(aBuf) {
		aMatch = make([]bool, la)
	} else {
		aMatch = aBuf[:la]
	}
	if lb > len(bBuf) {
		bMatch = make([]bool, lb)
	} else {
		bMatch = bBuf[:lb]
	}
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if bMatch[j] || a[i] != b[j] {
				continue
			}
			aMatch[i] = true
			bMatch[j] = true
			matches++
			break
		}
	}
	if matches == 0 {
		return 0
	}
	// Count transpositions among matched characters.
	trans := 0
	j := 0
	for i := 0; i < la; i++ {
		if !aMatch[i] {
			continue
		}
		for !bMatch[j] {
			j++
		}
		if a[i] != b[j] {
			trans++
		}
		j++
	}
	m := float64(matches)
	return (m/float64(la) + m/float64(lb) + (m-float64(trans)/2)/m) / 3
}

// JaroWinkler boosts Jaro similarity for strings sharing a prefix (up to
// 4 characters) with the standard scaling factor 0.1. It is the default
// measure for person and place names.
func JaroWinkler(a, b string) float64 {
	j := Jaro(a, b)
	prefix := 0
	for prefix < len(a) && prefix < len(b) && prefix < 4 && a[prefix] == b[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

// NGramSet returns the set of character n-grams of s, padding with
// (n-1) boundary markers so short strings still produce grams.
func NGramSet(s string, n int) map[string]struct{} {
	if n <= 0 {
		n = 2
	}
	pad := strings.Repeat("#", n-1)
	p := pad + s + pad
	out := make(map[string]struct{})
	for i := 0; i+n <= len(p); i++ {
		out[p[i:i+n]] = struct{}{}
	}
	return out
}

// DiceNGram returns the Sørensen-Dice coefficient between the character
// n-gram sets of a and b.
func DiceNGram(a, b string, n int) float64 {
	return DiceNGramSets(NGramSet(a, n), NGramSet(b, n))
}

// DiceNGramSets is DiceNGram over pre-extracted n-gram sets — the form
// the linking engine uses against warehouse-cached value features, so a
// stored attribute's grams are computed once at index time instead of
// once per comparison.
func DiceNGramSets(sa, sb map[string]struct{}) float64 {
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	inter := 0
	for g := range sa {
		if _, ok := sb[g]; ok {
			inter++
		}
	}
	denom := len(sa) + len(sb)
	if denom == 0 {
		return 1
	}
	return 2 * float64(inter) / float64(denom)
}

// DigitSimilarity compares two digit strings the way a partially
// recognized telephone number should be compared with a database value:
// it extracts the digits from both, then scores the longest common
// subsequence of digits relative to the reference length. Recognizing 6
// of 10 digits correctly (the paper's example) yields 0.6.
func DigitSimilarity(observed, reference string) float64 {
	return DigitSimilarityDigits(digitsOf(observed), digitsOf(reference))
}

// DigitSimilarityDigits is DigitSimilarity over pre-extracted digit
// strings (see DigitString), for callers that cache the reference side.
func DigitSimilarityDigits(od, rd string) float64 {
	if len(rd) == 0 {
		if len(od) == 0 {
			return 1
		}
		return 0
	}
	l := lcsLen(od, rd)
	return float64(l) / float64(len(rd))
}

// DigitString returns the digit content of s, in order — the cacheable
// input half of DigitSimilarityDigits.
func DigitString(s string) string { return digitsOf(s) }

func digitsOf(s string) string {
	if strings.IndexFunc(s, func(r rune) bool { return r < '0' || r > '9' }) < 0 {
		return s // an extracted digit token: nothing to strip, nothing to copy
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] >= '0' && s[i] <= '9' {
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// lcsLen returns the length of the longest common subsequence of a and b.
// Digit strings of at most 64 bytes (every phone and card number) take the
// bit-parallel recurrence of Allison-Dix as tightened by Hyyrö: row i of
// the DP is one word whose zero bits mark where the LCS length steps up,
// so a column costs an AND, an ADD and an OR instead of len(a) cells. Both
// paths count the same integer.
func lcsLen(a, b string) int {
	if len(a) > len(b) {
		a, b = b, a // the LCS is symmetric; the shorter side is the word
	}
	if len(a) > 64 {
		return lcsLenDP(a, b)
	}
	var match [10]uint64 // match[d] has bit i set where a[i] == '0'+d
	for i := 0; i < len(a); i++ {
		d := a[i] - '0'
		if d > 9 {
			return lcsLenDP(a, b)
		}
		match[d] |= 1 << i
	}
	v := ^uint64(0)
	for j := 0; j < len(b); j++ {
		d := b[j] - '0'
		if d > 9 {
			continue // matches nothing in an all-digit a
		}
		u := v & match[d]
		v = (v + u) | (v - u)
	}
	// Carries only travel upward, so the low len(a) bits are exact.
	return bits.OnesCount64(^v << (64 - len(a)))
}

// lcsLenDP is the two-row dynamic program, for input lcsLen's word cannot
// hold.
func lcsLenDP(a, b string) int {
	lb := len(b)
	prev := make([]int, lb+1)
	curr := make([]int, lb+1)
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= lb; j++ {
			if a[i-1] == b[j-1] {
				curr[j] = prev[j-1] + 1
			} else if prev[j] >= curr[j-1] {
				curr[j] = prev[j]
			} else {
				curr[j] = curr[j-1]
			}
		}
		prev, curr = curr, prev
	}
	return prev[lb]
}

// NumericProximity scores two numeric magnitudes: 1 when equal, decaying
// linearly to 0 at a relative difference of tol (e.g. tol = 0.5 means a
// 50% discrepancy scores 0). Customers misremember amounts; the paper
// notes "the customer may mention a different transaction amount in her
// email".
func NumericProximity(a, b, tol float64) float64 {
	if tol <= 0 {
		if a == b {
			return 1
		}
		return 0
	}
	den := a
	if den < 0 {
		den = -den
	}
	if bb := b; bb < 0 {
		bb = -bb
		if bb > den {
			den = bb
		}
	} else if bb > den {
		den = bb
	}
	if den == 0 {
		return 1 // both zero
	}
	rel := (a - b) / den
	if rel < 0 {
		rel = -rel
	}
	v := 1 - rel/tol
	if v < 0 {
		return 0
	}
	return v
}

// TokenSetSimilarityBest compares a (usually single-word) document token
// against a stored attribute value that may hold several words ("john p
// smith"): a single-word token scores its best Jaro-Winkler match against
// any word of the value, while a multi-word token falls back to the full
// token-set alignment. This is the right shape for ASR output, where a
// call usually surfaces one fragment of a multi-word database value.
func TokenSetSimilarityBest(token, value string) float64 {
	return TokenSetSimilarityBestWords(token, strings.Fields(strings.ToLower(value)))
}

// TokenSetSimilarityBestWords is TokenSetSimilarityBest against a value
// whose lowercase words are already split — the warehouse caches them per
// stored attribute so the split happens once at index time rather than
// once per comparison.
func TokenSetSimilarityBestWords(token string, valueWords []string) float64 {
	token = strings.ToLower(strings.TrimSpace(token))
	if strings.ContainsRune(token, ' ') {
		return TokenSetSimilarityFields(strings.Fields(token), valueWords)
	}
	return BestWordSimilarity(token, valueWords)
}

// BestWordSimilarity returns the best Jaro-Winkler score of a single
// (lowercase) token against any of the words.
func BestWordSimilarity(token string, words []string) float64 {
	best := 0.0
	for _, w := range words {
		if s := JaroWinkler(token, w); s > best {
			best = s
		}
	}
	return best
}

// TokenSetSimilarityFields compares two multi-word strings, given as
// pre-split lowercase word slices, by greedily aligning their tokens with
// JaroWinkler and averaging over the larger token count. It tolerates
// word reordering ("john p smith" vs "smith, john") and never mutates its
// arguments.
func TokenSetSimilarityFields(ta, tb []string) float64 {
	if len(ta) == 0 && len(tb) == 0 {
		return 1
	}
	if len(ta) == 0 || len(tb) == 0 {
		return 0
	}
	if len(ta) > len(tb) {
		ta, tb = tb, ta
	}
	used := make([]bool, len(tb))
	total := 0.0
	for _, wa := range ta {
		best, bestJ := 0.0, -1
		for j, wb := range tb {
			if used[j] {
				continue
			}
			if s := JaroWinkler(wa, wb); s > best {
				best, bestJ = s, j
			}
		}
		if bestJ >= 0 {
			used[bestJ] = true
			total += best
		}
	}
	return total / float64(len(tb))
}

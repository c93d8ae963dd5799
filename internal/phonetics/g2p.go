package phonetics

import "strings"

// g2pRule maps a spelling chunk to a phone sequence. Longest-match rules
// are tried first at each position; context conditions keep the rule set
// small while covering the regularities that matter for confusability.
type g2pRule struct {
	graph  string  // spelling chunk, lowercase
	phones []Phone // replacement phones (nil = silent)
	// final restricts the rule to word-final position when true.
	final bool
}

// Multi-letter rules in priority order (longest first within a starting
// letter; the table is scanned in order at each position).
var g2pRules = []g2pRule{
	// Four-letter chunks.
	{graph: "ough", phones: []Phone{OW}},
	{graph: "augh", phones: []Phone{AO}},
	{graph: "eigh", phones: []Phone{EY}},
	{graph: "tion", phones: []Phone{SH, AH, N}},
	{graph: "sion", phones: []Phone{ZH, AH, N}},

	// Three-letter chunks.
	{graph: "igh", phones: []Phone{AY}},
	{graph: "tch", phones: []Phone{CH}},
	{graph: "dge", phones: []Phone{JH}},
	{graph: "sch", phones: []Phone{SH}},
	{graph: "ere", phones: []Phone{IH, R}, final: true},
	{graph: "are", phones: []Phone{EH, R}, final: true},
	{graph: "ore", phones: []Phone{AO, R}, final: true},
	{graph: "ire", phones: []Phone{AY, ER}, final: true},
	{graph: "ure", phones: []Phone{ER}, final: true},
	{graph: "ing", phones: []Phone{IH, NG}, final: true},
	{graph: "ies", phones: []Phone{IY, Z}, final: true},
	{graph: "eau", phones: []Phone{OW}},

	// Two-letter chunks.
	{graph: "ch", phones: []Phone{CH}},
	{graph: "sh", phones: []Phone{SH}},
	{graph: "th", phones: []Phone{TH}},
	{graph: "ph", phones: []Phone{F}},
	{graph: "gh", phones: nil}, // silent (light, though handled above)
	{graph: "wh", phones: []Phone{W}},
	{graph: "ck", phones: []Phone{K}},
	{graph: "ng", phones: []Phone{NG}},
	{graph: "qu", phones: []Phone{K, W}},
	{graph: "kn", phones: []Phone{N}},
	{graph: "wr", phones: []Phone{R}},
	{graph: "ps", phones: []Phone{S}},
	{graph: "gn", phones: []Phone{N}},
	{graph: "mb", phones: []Phone{M}, final: true},
	{graph: "ee", phones: []Phone{IY}},
	{graph: "ea", phones: []Phone{IY}},
	{graph: "oo", phones: []Phone{UW}},
	{graph: "ou", phones: []Phone{AW}},
	{graph: "ow", phones: []Phone{OW}},
	{graph: "ai", phones: []Phone{EY}},
	{graph: "ay", phones: []Phone{EY}},
	{graph: "ei", phones: []Phone{EY}},
	{graph: "ey", phones: []Phone{IY}},
	{graph: "oi", phones: []Phone{OY}},
	{graph: "oy", phones: []Phone{OY}},
	{graph: "au", phones: []Phone{AO}},
	{graph: "aw", phones: []Phone{AO}},
	{graph: "ue", phones: []Phone{UW}},
	{graph: "ui", phones: []Phone{UW}},
	{graph: "ie", phones: []Phone{IY}},
	{graph: "oa", phones: []Phone{OW}},
	{graph: "ar", phones: []Phone{AA, R}},
	{graph: "er", phones: []Phone{ER}},
	{graph: "ir", phones: []Phone{ER}},
	{graph: "ur", phones: []Phone{ER}},
	{graph: "or", phones: []Phone{AO, R}},
	{graph: "ll", phones: []Phone{L}},
	{graph: "ss", phones: []Phone{S}},
	{graph: "tt", phones: []Phone{T}},
	{graph: "pp", phones: []Phone{P}},
	{graph: "bb", phones: []Phone{B}},
	{graph: "dd", phones: []Phone{D}},
	{graph: "ff", phones: []Phone{F}},
	{graph: "gg", phones: []Phone{G}},
	{graph: "mm", phones: []Phone{M}},
	{graph: "nn", phones: []Phone{N}},
	{graph: "rr", phones: []Phone{R}},
	{graph: "zz", phones: []Phone{Z}},
	{graph: "cc", phones: []Phone{K}},
}

// singleVowel maps single vowel letters to their default (short) phones.
var singleVowel = map[byte]Phone{
	'a': AE, 'e': EH, 'i': IH, 'o': AA, 'u': AH, 'y': IY,
}

// longVowel maps vowel letters to their "long" (letter-name) phones used
// when a magic-e pattern applies (vowel + single consonant + final e).
var longVowel = map[byte]Phone{
	'a': EY, 'e': IY, 'i': AY, 'o': OW, 'u': UW, 'y': AY,
}

// singleConsonant maps single consonant letters to phones; c and g are
// handled contextually before this table applies.
var singleConsonant = map[byte]Phone{
	'b': B, 'd': D, 'f': F, 'h': HH, 'j': JH, 'k': K, 'l': L, 'm': M,
	'n': N, 'p': P, 'r': R, 's': S, 't': T, 'v': V, 'w': W, 'x': K,
	'z': Z,
}

func isVowelLetter(b byte) bool {
	switch b {
	case 'a', 'e', 'i', 'o', 'u', 'y':
		return true
	}
	return false
}

// exceptions holds hand pronunciations for very frequent words where the
// rules would produce something misleading. Digits and spelled-out
// numbers are here because Table I scores them as their own entity class.
var exceptions = map[string][]Phone{
	"a": {AH}, "an": {AE, N}, "the": {DH, AH}, "of": {AH, V},
	"to": {T, UW}, "do": {D, UW}, "you": {Y, UW}, "your": {Y, AO, R},
	"i": {AY}, "is": {IH, Z}, "was": {W, AA, Z}, "what": {W, AH, T},
	"one": {W, AH, N}, "two": {T, UW}, "three": {TH, R, IY},
	"four": {F, AO, R}, "five": {F, AY, V}, "six": {S, IH, K, S},
	"seven": {S, EH, V, AH, N}, "eight": {EY, T}, "nine": {N, AY, N},
	"zero": {Z, IY, R, OW}, "ten": {T, EH, N},
	"eleven":  {IH, L, EH, V, AH, N},
	"twelve":  {T, W, EH, L, V},
	"twenty":  {T, W, EH, N, T, IY},
	"thirty":  {TH, ER, T, IY},
	"forty":   {F, AO, R, T, IY},
	"fifty":   {F, IH, F, T, IY},
	"sixty":   {S, IH, K, S, T, IY},
	"seventy": {S, EH, V, AH, N, T, IY},
	"eighty":  {EY, T, IY},
	"ninety":  {N, AY, N, T, IY},
	"hundred": {HH, AH, N, D, R, AH, D},
	"oh":      {OW},
	"dollars": {D, AA, L, ER, Z},
	"have":    {HH, AE, V}, "are": {AA, R}, "there": {DH, EH, R},
	"they": {DH, EY}, "said": {S, EH, D}, "says": {S, EH, Z},
	"please": {P, L, IY, Z}, "sir": {S, ER}, "okay": {OW, K, EY},
	"car": {K, AA, R}, "suv": {EH, S, Y, UW, V, IY},
}

// ToPhones converts a lowercase word to its phone sequence using the rule
// table. Unknown characters (digits, punctuation) are skipped; callers
// spell out digit strings first (see SpellDigits).
func ToPhones(word string) []Phone {
	word = strings.ToLower(word)
	if p, ok := exceptions[word]; ok {
		out := make([]Phone, len(p))
		copy(out, p)
		return out
	}
	var out []Phone
	n := len(word)
	i := 0
	for i < n {
		c := word[i]
		// Silent final e after a consonant with at least one prior vowel:
		// lengthen the preceding vowel (magic e) — already emitted, so we
		// approximate by retroactively promoting the last emitted short
		// vowel when the pattern matches.
		if c == 'e' && i == n-1 && i >= 2 && !isVowelLetter(word[i-1]) && isVowelLetter(word[i-2]) {
			promoteMagicE(out, word[i-2])
			i++
			continue
		}
		if r, adv, ok := matchRule(word, i); ok {
			out = append(out, r...)
			i += adv
			continue
		}
		switch {
		case c == 'c':
			// Soft c before e/i/y, else hard.
			if i+1 < n && (word[i+1] == 'e' || word[i+1] == 'i' || word[i+1] == 'y') {
				out = append(out, S)
			} else {
				out = append(out, K)
			}
			i++
		case c == 'g':
			if i+1 < n && (word[i+1] == 'e' || word[i+1] == 'i' || word[i+1] == 'y') {
				out = append(out, JH)
			} else {
				out = append(out, G)
			}
			i++
		case c == 'y' && i == 0:
			out = append(out, Y)
			i++
		case c == 'y' && i == n-1:
			out = append(out, IY)
			i++
		case isVowelLetter(c):
			out = append(out, singleVowel[c])
			i++
		default:
			if p, ok := singleConsonant[c]; ok {
				out = append(out, p)
			}
			// Digits and other characters are skipped silently.
			i++
		}
	}
	return out
}

// promoteMagicE rewrites the final short vowel in out to its long form
// when a magic-e pattern (V C e#) is detected for vowel letter v.
func promoteMagicE(out []Phone, v byte) {
	long, ok := longVowel[v]
	if !ok || len(out) < 2 {
		return
	}
	// The vowel is the second-to-last phone (vowel, consonant).
	idx := len(out) - 2
	if IsVowel(out[idx]) {
		out[idx] = long
	}
}

// matchRule tries the multi-letter rule table at position i, returning
// the phones, the number of bytes consumed, and whether a rule fired.
func matchRule(word string, i int) ([]Phone, int, bool) {
	for _, r := range g2pRules {
		if !strings.HasPrefix(word[i:], r.graph) {
			continue
		}
		if r.final && i+len(r.graph) != len(word) {
			continue
		}
		return r.phones, len(r.graph), true
	}
	return nil, 0, false
}

// digitWords spells single digits; "oh" is the conversational zero.
var digitWords = [10]string{
	"zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine",
}

// SpellDigits expands a digit string to its spoken words, digit by digit,
// the way telephone numbers and confirmation codes are read out in calls.
func SpellDigits(s string) []string {
	out := make([]string, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] >= '0' && s[i] <= '9' {
			out = append(out, digitWords[s[i]-'0'])
		}
	}
	return out
}

// WordForDigitWord maps a spoken digit word ("seven") to its digit rune,
// reporting ok=false for other words.
func WordForDigitWord(w string) (byte, bool) {
	for i, dw := range digitWords {
		if w == dw {
			return byte('0' + i), true
		}
	}
	if w == "oh" {
		return '0', true
	}
	return 0, false
}

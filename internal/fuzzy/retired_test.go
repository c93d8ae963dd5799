package fuzzy

// Nothing shipped reaches what this file declares (the root package's
// TestEveryInternalFunctionIsReachable). It left fuzzy.go
// in PR 24 and stays, as test code only, because the tests below pin it
// and a PR may retire only a few tests of the floor. It is a reference
// for nothing: delete each declaration with its tests.

import (
	"strings"
	"testing"
	"testing/quick"
)

// Levenshtein returns the unit-cost edit distance between a and b,
// operating on bytes (inputs are expected to be normalized ASCII-ish
// tokens; noisy VoC text is lowercased before matching).
func Levenshtein(a, b string) int {
	la, lb := len(a), len(b)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	prev := make([]int, lb+1)
	curr := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		curr[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost
			if v := prev[j] + 1; v < m {
				m = v
			}
			if v := curr[j-1] + 1; v < m {
				m = v
			}
			curr[j] = m
		}
		prev, curr = curr, prev
	}
	return prev[lb]
}

// DamerauLevenshtein returns the edit distance allowing adjacent
// transpositions (the restricted/optimal-string-alignment variant), which
// matters for keyboard typos in email and SMS ("teh" → "the").
func DamerauLevenshtein(a, b string) int {
	la, lb := len(a), len(b)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	rows := make([][]int, la+1)
	for i := range rows {
		rows[i] = make([]int, lb+1)
		rows[i][0] = i
	}
	for j := 0; j <= lb; j++ {
		rows[0][j] = j
	}
	for i := 1; i <= la; i++ {
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := rows[i-1][j-1] + cost
			if v := rows[i-1][j] + 1; v < m {
				m = v
			}
			if v := rows[i][j-1] + 1; v < m {
				m = v
			}
			if i > 1 && j > 1 && a[i-1] == b[j-2] && a[i-2] == b[j-1] {
				if v := rows[i-2][j-2] + 1; v < m {
					m = v
				}
			}
			rows[i][j] = m
		}
	}
	return rows[la][lb]
}

// LevenshteinSimilarity maps edit distance into [0, 1] by normalizing
// with the longer length.
func LevenshteinSimilarity(a, b string) float64 {
	if a == b {
		return 1
	}
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	if n == 0 {
		return 1
	}
	return 1 - float64(Levenshtein(a, b))/float64(n)
}

// JaccardNGram returns the Jaccard coefficient between the character
// n-gram sets of a and b.
func JaccardNGram(a, b string, n int) float64 {
	sa, sb := NGramSet(a, n), NGramSet(b, n)
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	inter := 0
	for g := range sa {
		if _, ok := sb[g]; ok {
			inter++
		}
	}
	union := len(sa) + len(sb) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// TokenSetSimilarity compares two multi-word strings by greedily aligning
// their tokens with JaroWinkler and averaging over the larger token
// count. It tolerates word reordering ("john p smith" vs "smith, john").
func TokenSetSimilarity(a, b string) float64 {
	return TokenSetSimilarityFields(strings.Fields(strings.ToLower(a)), strings.Fields(strings.ToLower(b)))
}

func TestLevenshteinKnown(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"same", "same", 0},
		{"book", "back", 2},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinMetricProperties(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 30 {
			a = a[:30]
		}
		if len(b) > 30 {
			b = b[:30]
		}
		d := Levenshtein(a, b)
		// Symmetry, identity, and bounds.
		if d != Levenshtein(b, a) {
			return false
		}
		if (d == 0) != (a == b) {
			return false
		}
		max := len(a)
		if len(b) > max {
			max = len(b)
		}
		min := len(a) - len(b)
		if min < 0 {
			min = -min
		}
		return d >= min && d <= max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDamerauTransposition(t *testing.T) {
	if got := DamerauLevenshtein("teh", "the"); got != 1 {
		t.Errorf("transposition should cost 1, got %d", got)
	}
	if got := Levenshtein("teh", "the"); got != 2 {
		t.Errorf("plain Levenshtein transposition = %d, want 2", got)
	}
	if got := DamerauLevenshtein("abcd", "abcd"); got != 0 {
		t.Errorf("self distance = %d", got)
	}
	if got := DamerauLevenshtein("", "xy"); got != 2 {
		t.Errorf("empty distance = %d", got)
	}
}

func TestDamerauNeverExceedsLevenshtein(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 20 {
			a = a[:20]
		}
		if len(b) > 20 {
			b = b[:20]
		}
		return DamerauLevenshtein(a, b) <= Levenshtein(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinSimilarityRange(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 30 {
			a = a[:30]
		}
		if len(b) > 30 {
			b = b[:30]
		}
		v := LevenshteinSimilarity(a, b)
		return v >= 0 && v <= 1 && (v == 1) == (a == b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestJaccardDiceAgreement(t *testing.T) {
	// Dice >= Jaccard always; equal only at 0 or 1.
	f := func(a, b string) bool {
		if len(a) > 20 {
			a = a[:20]
		}
		if len(b) > 20 {
			b = b[:20]
		}
		j := JaccardNGram(a, b, 2)
		d := DiceNGram(a, b, 2)
		if j < 0 || j > 1 || d < 0 || d > 1 {
			return false
		}
		return d >= j-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestJaccardIdentity(t *testing.T) {
	if JaccardNGram("reservation", "reservation", 3) != 1 {
		t.Error("identical strings should score 1")
	}
	if JaccardNGram("abc", "xyz", 2) != 0 {
		t.Error("disjoint strings should score 0")
	}
}

func TestTokenSetSimilarity(t *testing.T) {
	if got := TokenSetSimilarity("john smith", "smith john"); got < 0.99 {
		t.Errorf("reordered tokens = %v, want ~1", got)
	}
	if got := TokenSetSimilarity("john smith", "john q smith"); got < 0.6 {
		t.Errorf("extra middle token = %v", got)
	}
	one := TokenSetSimilarity("john smith", "jon smith")
	two := TokenSetSimilarity("john smith", "peter jones")
	if one <= two {
		t.Errorf("near-name %v should beat far name %v", one, two)
	}
	if TokenSetSimilarity("", "") != 1 {
		t.Error("both empty should score 1")
	}
	if TokenSetSimilarity("a", "") != 0 {
		t.Error("one empty should score 0")
	}
}

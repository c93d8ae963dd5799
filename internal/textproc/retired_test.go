package textproc

// Nothing shipped reaches what this file declares (the root package's
// TestEveryInternalFunctionIsReachable). It left textproc.go
// in PR 24 and stays, as test code only, because the tests below pin it
// and a PR may retire only a few tests of the floor. It is a reference
// for nothing: delete each declaration with its tests.

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

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

func TestSplitSentences(t *testing.T) {
	got := SplitSentences("I want a car. Can you help? Great!")
	want := []string{"I want a car.", "Can you help?", "Great!"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestSplitSentencesNoTerminator(t *testing.T) {
	got := SplitSentences("no punctuation here")
	if !reflect.DeepEqual(got, []string{"no punctuation here"}) {
		t.Errorf("got %v", got)
	}
}

func TestSplitSentencesEllipsis(t *testing.T) {
	got := SplitSentences("Hmm... okay then.")
	want := []string{"Hmm...", "okay then."}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestSplitSentencesDecimalNotSplit(t *testing.T) {
	// "Rs.2013" style strings (Fig 1 of the paper) must not split because
	// no whitespace follows the period.
	got := SplitSentences("charged Rs.2013 for sms")
	if len(got) != 1 {
		t.Errorf("decimal-period split wrongly: %v", got)
	}
}

func TestSplitSentencesEmpty(t *testing.T) {
	if got := SplitSentences(""); len(got) != 0 {
		t.Errorf("empty produced %v", got)
	}
	if got := SplitSentences("   "); len(got) != 0 {
		t.Errorf("blank produced %v", got)
	}
}

func TestNormalizeWhitespace(t *testing.T) {
	if got := NormalizeWhitespace("  a \t b\n\nc  "); got != "a b c" {
		t.Errorf("got %q", got)
	}
}

func TestVocabulary(t *testing.T) {
	v := NewVocabulary()
	v.Add("car", "car", "rate", "car", "discount")
	if v.Count("car") != 3 || v.Count("rate") != 1 || v.Count("missing") != 0 {
		t.Error("counts wrong")
	}
	if v.Total() != 5 || v.Size() != 3 {
		t.Errorf("total=%d size=%d", v.Total(), v.Size())
	}
}

func TestVocabularyTopN(t *testing.T) {
	v := NewVocabulary()
	v.Add("b", "b", "a", "a", "c")
	got := v.TopN(2)
	// a and b tie at 2; lexicographic tiebreak puts a first.
	want := []string{"a", "b"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	if got := v.TopN(100); len(got) != 3 {
		t.Errorf("TopN over size = %v", got)
	}
}

func TestVocabularyTopNDeterministic(t *testing.T) {
	build := func() []string {
		v := NewVocabulary()
		for _, w := range []string{"x", "y", "z", "w", "x", "y", "z", "w"} {
			v.Add(w)
		}
		return v.TopN(4)
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("TopN not deterministic: %v vs %v", a, b)
	}
}

package textproc

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// token is one step of the scanner, nextToken, as these tests read it.
type token struct {
	Text       string
	Start, End int
	Word       bool // letters and digits, not one rune of punctuation
}

// tokenize walks nextToken over s the way Words does, keeping punctuation.
func tokenize(s string) []token {
	var toks []token
	for i := 0; ; {
		start, end, word := nextToken(s, i)
		if start == end {
			return toks
		}
		toks = append(toks, token{Text: s[start:end], Start: start, End: end, Word: word})
		i = end
	}
}

func texts(toks []token) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Text
	}
	return out
}

func TestTokenizeBasic(t *testing.T) {
	toks := tokenize("Hello, world! It's 42.")
	want := []string{"Hello", ",", "world", "!", "It's", "42", "."}
	if got := texts(toks); !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestTokenizeKinds(t *testing.T) {
	toks := tokenize("call 9876543210, re A4 pls")
	word := map[string]bool{}
	for _, tok := range toks {
		word[tok.Text] = tok.Word
	}
	if !word["call"] {
		t.Error("'call' should be a word")
	}
	if !word["9876543210"] {
		t.Error("phone number should be one word token")
	}
	if !word["A4"] {
		t.Error("'A4' should be one word token")
	}
	if w, ok := word[","]; !ok || w {
		t.Error("',' should be a punctuation token of its own")
	}
}

func TestTokenizeApostrophe(t *testing.T) {
	toks := tokenize("didn't can't agents' cars")
	got := texts(toks)
	want := []string{"didn't", "can't", "agents", "'", "cars"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestTokenizeOffsets(t *testing.T) {
	src := "hi there, bye"
	for _, tok := range tokenize(src) {
		if src[tok.Start:tok.End] != tok.Text {
			t.Errorf("offset mismatch: %q vs %q", src[tok.Start:tok.End], tok.Text)
		}
	}
}

func TestTokenizeEmpty(t *testing.T) {
	if toks := tokenize(""); len(toks) != 0 {
		t.Errorf("empty input produced %v", toks)
	}
	if toks := tokenize("   \t\n "); len(toks) != 0 {
		t.Errorf("whitespace produced %v", toks)
	}
}

func TestTokenizeRoundTripProperty(t *testing.T) {
	// Concatenating token texts in order should reproduce the input minus
	// whitespace.
	f := func(s string) bool {
		var b strings.Builder
		for _, tok := range tokenize(s) {
			b.WriteString(tok.Text)
		}
		stripped := strings.Map(func(r rune) rune {
			if r == ' ' || r == '\t' || r == '\n' || r == '\r' || r == '\v' || r == '\f' ||
				r == 0x85 || r == 0xA0 || r == 0x2028 || r == 0x2029 ||
				(r >= 0x2000 && r <= 0x200A) || r == 0x1680 || r == 0x202F || r == 0x205F || r == 0x3000 {
				return -1
			}
			return r
		}, s)
		return b.String() == stripped
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTokenizeOffsetsProperty(t *testing.T) {
	f := func(s string) bool {
		prev := 0
		for _, tok := range tokenize(s) {
			if tok.Start < prev || tok.End <= tok.Start || tok.End > len(s) {
				return false
			}
			if s[tok.Start:tok.End] != tok.Text {
				return false
			}
			prev = tok.End
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestWords(t *testing.T) {
	got := Words("The Agent said: BOOK NOW, pay $50!")
	want := []string{"the", "agent", "said", "book", "now", "pay", "50"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestIsNumeric(t *testing.T) {
	cases := map[string]bool{
		"": false, "123": true, "12a": false, "a12": false, "0": true,
		"9876543210": true, " 1": false,
	}
	for in, want := range cases {
		if got := IsNumeric(in); got != want {
			t.Errorf("IsNumeric(%q) = %v", in, got)
		}
	}
}

func TestDigitCount(t *testing.T) {
	if got := DigitCount("a1b22c333"); got != 6 {
		t.Errorf("got %d", got)
	}
	if got := DigitCount("none"); got != 0 {
		t.Errorf("got %d", got)
	}
}

func TestStopwords(t *testing.T) {
	if !IsStopword("the") || !IsStopword("and") {
		t.Error("common stopwords not detected")
	}
	if IsStopword("reservation") || IsStopword("discount") {
		t.Error("content words marked as stopwords")
	}
}

func TestContentWords(t *testing.T) {
	got := ContentWords("I would like to book a full size car")
	want := []string{"like", "book", "full", "size", "car"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

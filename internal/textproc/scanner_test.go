package textproc

import (
	"reflect"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// refTokenize is the tokenizer as it stood before Words stopped
// materialising tokens, kept as the reference for the scanner.
func refTokenize(s string) []token {
	var toks []token
	i := 0
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
				} else if unicode.IsDigit(r2) {
					// a digit extends the token
				} else if r2 == '\'' && hasLetter {
					r3, _ := decodeRune(s[i+sz:])
					if !unicode.IsLetter(r3) {
						break
					}
				} else {
					break
				}
				i += sz
			}
			toks = append(toks, token{Text: s[start:i], Start: start, End: i, Word: true})
		default:
			toks = append(toks, token{Text: s[i : i+size], Start: i, End: i + size})
			i += size
		}
	}
	return toks
}

// noisyInputs is the input VoC text actually brings: invalid UTF-8,
// apostrophes in every position, digits glued to letters, non-Latin
// scripts, unusual whitespace, nothing at all. The ASCII ones pin the
// byte-class scanner; a U+0085 or U+00A0 space must send its string to
// the rune scanner.
var noisyInputs = []string{
	"",
	" \t\r\n",
	"Hello, World! It's 9am; call 555-0142 NOW!!",
	"didn't 'quoted' rock'n'roll o'brien' 'tis 12'30 a''b '",
	"pls cal me b4 2moro!!! my no is98765 43210thx",
	"Sánchez ÜBER naïve Ærø İstanbul ǅ",
	"мой номер 12345 العربية ١٢٣ 中文字 हिन्दी",
	"bad\xffbyte \xc3( trunc\xe2\x82 \x80\x80 ok\xf0\x9f",
	"\xff",
	"\xe2\x82",
	"tail'",
	"x'\xff",
	"a\u00a0b\u2003c\u3000de\u0085f",
	"price: $1,200.50 (approx.) — 20% off… №5",
	"THE the The tHe and AND i I",
	"e-mail: a.b@c.co.in http://x.y/z?q=1&r=2",
	strings.Repeat("!?", 40) + strings.Repeat(" z9 ", 40),
	"ends with an apostrophe' and 9' and ''",
	"a''b",
	"9'am 4x4's 12'30 x'y 1'a 'b",
	"ALL UPPER CASE: IT'S O'BRIEN'S 4X4, DON'T",
	"vertical\vtab\fform\x00nul\x7fdel\x1fus",
	"no\u0085break",
	"non\u00a0breaking",
}

// refWords is Words as the reference tokenizer reads it.
func refWords(s string) []string {
	ref := refTokenize(s)
	words := make([]string, 0, len(ref))
	for _, tok := range ref {
		if tok.Word {
			words = append(words, strings.ToLower(tok.Text))
		}
	}
	return words
}

// TestScannerOnNoisyInput pins nextToken, Words and ContentWords to the
// reference over noisyInputs.
func TestScannerOnNoisyInput(t *testing.T) {
	for _, s := range noisyInputs {
		ref := refTokenize(s)
		if got := tokenize(s); !reflect.DeepEqual(got, ref) {
			t.Errorf("nextToken over %q\n got %v\nwant %v", s, got, ref)
		}
		words := refWords(s)
		content := make([]string, 0, len(words))
		for _, w := range words {
			if !IsStopword(w) {
				content = append(content, w)
			}
		}
		if got := Words(s); !reflect.DeepEqual(got, words) {
			t.Errorf("Words(%q)\n got %q\nwant %q", s, got, words)
		}
		if got := ContentWords(s); !reflect.DeepEqual(got, content) {
			t.Errorf("ContentWords(%q)\n got %q\nwant %q", s, got, content)
		}
		if got := Words(s); cap(got) != len(words) {
			t.Errorf("Words(%q) has capacity %d for %d words", s, cap(got), len(words))
		}
		if _, ascii := countASCII(s); ascii == strings.ContainsFunc(s, func(r rune) bool { return r >= utf8.RuneSelf }) {
			t.Errorf("countASCII(%q) reads it as ASCII: %v", s, ascii)
		}
	}
}

// FuzzWords holds Words to the reference tokenizer on any input: the
// same tokens in a slice of exactly their number. WordsOf over the input
// split at its spaces must return the same tokens.
func FuzzWords(f *testing.F) {
	for _, s := range noisyInputs {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want := refWords(s)
		got := Words(s)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Words(%q)\n got %q\nwant %q", s, got, want)
		}
		if cap(got) != len(got) {
			t.Fatalf("Words(%q) has capacity %d for %d words", s, cap(got), len(got))
		}
		if got := WordsOf(strings.Split(s, " ")); !reflect.DeepEqual(got, want) {
			t.Fatalf("WordsOf(Split(%q))\n got %q\nwant %q", s, got, want)
		}
	})
}

// TestWordsOfPassesTranscriptsThrough pins WordsOf's fast case: words
// that are each one lower-case ASCII token come back as the same slice,
// and any other element sends the whole slice through Words word by word.
func TestWordsOfPassesTranscriptsThrough(t *testing.T) {
	ws := []string{"i", "didn't", "book", "4x4", "500"}
	if got := WordsOf(ws); len(got) != len(ws) || &got[0] != &ws[0] {
		t.Errorf("WordsOf(%q) = %q, not the slice itself", ws, got)
	}
	for _, ws := range [][]string{
		{"i", "Didn't", "book"},
		{"i", "didn'", "t"},
		{"'tis", "", "a  b", "x-y", "naïve"},
		{"call", "555-0142", "now"},
	} {
		want := Words(strings.Join(ws, " "))
		if got := WordsOf(ws); !reflect.DeepEqual(got, want) {
			t.Errorf("WordsOf(%q) = %q, want %q", ws, got, want)
		}
	}
}

package textproc

import (
	"reflect"
	"strings"
	"testing"
	"unicode"
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

// TestScannerOnNoisyInput pins nextToken, Words and ContentWords to the
// reference over the input VoC text actually brings: invalid UTF-8,
// apostrophes in every position, digits glued to letters, non-Latin
// scripts, unusual whitespace, nothing at all.
func TestScannerOnNoisyInput(t *testing.T) {
	inputs := []string{
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
	}
	for _, s := range inputs {
		ref := refTokenize(s)
		if got := tokenize(s); !reflect.DeepEqual(got, ref) {
			t.Errorf("nextToken over %q\n got %v\nwant %v", s, got, ref)
		}
		words := make([]string, 0, len(ref))
		content := make([]string, 0, len(ref))
		for _, tok := range ref {
			if !tok.Word {
				continue
			}
			w := strings.ToLower(tok.Text)
			words = append(words, w)
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
	}
}

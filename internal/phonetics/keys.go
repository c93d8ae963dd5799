package phonetics

import "strings"

// Soundex returns the classic 4-character Soundex code of a word
// (letter + three digits). Non-letters are ignored; an empty input yields
// "0000". The fuzzy name index in the warehouse uses Soundex buckets so
// that partially recognized names from the ASR still land near their
// database entries.
func Soundex(s string) string {
	s = strings.ToUpper(s)
	var first byte
	var prev byte
	var code []byte
	digit := func(c byte) byte {
		switch c {
		case 'B', 'F', 'P', 'V':
			return '1'
		case 'C', 'G', 'J', 'K', 'Q', 'S', 'X', 'Z':
			return '2'
		case 'D', 'T':
			return '3'
		case 'L':
			return '4'
		case 'M', 'N':
			return '5'
		case 'R':
			return '6'
		default:
			return 0 // vowels and H, W, Y
		}
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 'A' || c > 'Z' {
			continue
		}
		d := digit(c)
		if first == 0 {
			first = c
			prev = d
			continue
		}
		// H and W are transparent: they do not reset the previous code.
		if c == 'H' || c == 'W' {
			continue
		}
		if d != 0 && d != prev {
			code = append(code, d)
			if len(code) == 3 {
				break
			}
		}
		prev = d
	}
	if first == 0 {
		return "0000"
	}
	for len(code) < 3 {
		code = append(code, '0')
	}
	return string(first) + string(code)
}

// PhoneKey returns a Metaphone-style phonetic key: the consonant skeleton
// of the word's phone sequence with voicing distinctions collapsed. Words
// that sound alike ("smith"/"smyth", "philip"/"filip") share a key, which
// the linker uses as a fuzzy index into name attributes.
func PhoneKey(word string) string {
	phones := ToPhones(word)
	var b strings.Builder
	var last byte
	for _, p := range phones {
		var c byte
		switch p {
		case B, P:
			c = 'P'
		case D, T:
			c = 'T'
		case G, K:
			c = 'K'
		case F, V:
			c = 'F'
		case S, Z:
			c = 'S'
		case SH, ZH, CH, JH:
			c = 'X'
		case TH, DH:
			c = '0'
		case M:
			c = 'M'
		case N, NG:
			c = 'N'
		case L:
			c = 'L'
		case R:
			c = 'R'
		case HH:
			c = 'H'
		case W:
			c = 'W'
		case Y:
			c = 'J'
		default:
			continue // vowels contribute nothing
		}
		if c != last {
			b.WriteByte(c)
			last = c
		}
	}
	if b.Len() == 0 {
		// All-vowel words key on their first phone name so they do not all
		// collide on the empty string.
		if len(phones) > 0 {
			return phones[0].String()
		}
		return ""
	}
	return b.String()
}

// PhoneDistance returns the weighted edit distance between two phone
// sequences. Substitutions within an articulatory class cost 0.5, across
// classes 1.0; insertions and deletions cost 0.7. This is the similarity
// the constrained second-pass recognizer and the fuzzy name match both
// use — it makes "Jill"/"Gill" far closer than "Jill"/"Frank".
func PhoneDistance(a, b []Phone) float64 {
	const (
		subSameClass = 0.5
		subDiffClass = 1.0
		indel        = 0.7
	)
	la, lb := len(a), len(b)
	// Word phone sequences are short; stack rows keep the DP
	// allocation-free on the linking hot path.
	var pBuf, cBuf [48]float64
	var prev, curr []float64
	if lb+1 > len(pBuf) {
		prev = make([]float64, lb+1)
		curr = make([]float64, lb+1)
	} else {
		prev = pBuf[:lb+1]
		curr = cBuf[:lb+1]
	}
	for j := 0; j <= lb; j++ {
		prev[j] = float64(j) * indel
	}
	for i := 1; i <= la; i++ {
		curr[0] = float64(i) * indel
		pa := a[i-1]
		ca := ClassOf(pa)
		for j := 1; j <= lb; j++ {
			sub := prev[j-1]
			if pb := b[j-1]; pa != pb {
				if ca == ClassOf(pb) {
					sub += subSameClass
				} else {
					sub += subDiffClass
				}
			}
			del := prev[j] + indel
			ins := curr[j-1] + indel
			m := sub
			if del < m {
				m = del
			}
			if ins < m {
				m = ins
			}
			curr[j] = m
		}
		prev, curr = curr, prev
	}
	return prev[lb]
}

// PhoneSimilarity maps PhoneDistance into [0, 1], where 1 is identical.
// It normalizes by the length of the longer sequence.
func PhoneSimilarity(a, b []Phone) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	d := PhoneDistance(a, b) / float64(n)
	if d > 1 {
		d = 1
	}
	return 1 - d
}

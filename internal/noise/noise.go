// Package noise injects the textual noise phenomena the paper documents
// in Voice-of-Customer channels (§III.A, Figure 1): SMS lingo and
// unconventional shorthands, keyboard typos, missing vowels, multilingual
// code-switching fragments, inconsistent casing and punctuation, plus the
// email-specific wrappers (headers, signatures, disclaimers, promotional
// blocks) that the cleaning stage must strip.
//
// The generators are deterministic given an rng stream, so every corpus
// in EXPERIMENTS.md is reproducible.
package noise

import (
	"strings"
	"unicode"
	"unicode/utf8"

	"bivoc/internal/rng"
)

// smsLingo maps standard words to the shorthand forms observed in text
// messages (Fig 1: "pl.", "tht", "inf", "custmer"...).
var smsLingo = map[string][]string{
	"please":       {"pls", "plz", "pl"},
	"you":          {"u"},
	"your":         {"ur", "yr"},
	"are":          {"r"},
	"for":          {"4", "fr"},
	"to":           {"2"},
	"today":        {"2day"},
	"tomorrow":     {"2moro", "tmrw"},
	"great":        {"gr8"},
	"late":         {"l8"},
	"wait":         {"w8"},
	"before":       {"b4"},
	"thanks":       {"thx", "tnx", "thnks"},
	"thank":        {"thk"},
	"because":      {"bcoz", "cuz", "bcz"},
	"message":      {"msg"},
	"messages":     {"msgs"},
	"number":       {"no.", "num", "nmbr"},
	"account":      {"acct", "a/c", "acnt"},
	"customer":     {"cust", "custmer", "custmr"},
	"received":     {"recd", "rcvd"},
	"payment":      {"pymt", "paymnt"},
	"balance":      {"bal"},
	"minutes":      {"mins"},
	"service":      {"svc", "servce"},
	"that":         {"tht", "dat"},
	"the":          {"teh", "d"},
	"with":         {"wid", "wth"},
	"without":      {"w/o"},
	"informed":     {"inf", "infrmd"},
	"regarding":    {"re", "regd"},
	"and":          {"n", "&"},
	"good":         {"gud"},
	"very":         {"v"},
	"not":          {"nt"},
	"what":         {"wat", "wt"},
	"have":         {"hv", "hav"},
	"be":           {"b"},
	"see":          {"c"},
	"okay":         {"ok", "k"},
	"problem":      {"prob", "prblm"},
	"request":      {"req", "reqst"},
	"activate":     {"actvte"},
	"confirm":      {"cnfrm"},
	"connect":      {"connct"},
	"disconnected": {"disconn", "discnctd"},
	"recharge":     {"rechrge", "rchrg"},
	"network":      {"ntwrk", "n/w"},
	"mobile":       {"mob", "mobil"},
	"week":         {"wk"},
	"month":        {"mnth"},
	"rupees":       {"rs", "rs."},
}

// hindiPhrases are the code-switching fragments (Fig 1 shows
// "hai.custmer ko satisfied hi nahi karte") inserted into multilingual
// messages.
var hindiPhrases = []string{
	"kya hua", "nahi chahiye", "bahut kharab", "theek nahi hai",
	"paisa wapas karo", "kab tak", "jaldi karo", "bilkul bekar",
	"koi sunta nahi", "hadd hai", "samajh nahi aata", "band karo",
}

// keyboardNeighbors maps each letter to its QWERTY neighbours for typo
// simulation.
var keyboardNeighbors = map[byte]string{
	'a': "qwsz", 'b': "vghn", 'c': "xdfv", 'd': "erfcxs", 'e': "wsdr",
	'f': "rtgvcd", 'g': "tyhbvf", 'h': "yujnbg", 'i': "ujko", 'j': "uikmnh",
	'k': "iolmj", 'l': "opk", 'm': "njk", 'n': "bhjm", 'o': "iklp",
	'p': "ol", 'q': "wa", 'r': "edft", 's': "awedxz", 't': "rfgy",
	'u': "yhji", 'v': "cfgb", 'w': "qase", 'x': "zsdc", 'y': "tghu",
	'z': "asx",
}

// Config sets the rates of each noise phenomenon, all per-word except
// where noted.
type Config struct {
	// LingoProb replaces a word with SMS shorthand when one exists.
	LingoProb float64
	// TypoProb garbles a word with a keyboard typo (substitution,
	// transposition, doubling or dropping).
	TypoProb float64
	// DropVowelProb removes the word's vowels ("problem" → "prblm").
	DropVowelProb float64
	// CaseNoiseProb flips the casing of a word (ALL CAPS or random).
	CaseNoiseProb float64
	// DropPunctProb removes each punctuation mark.
	DropPunctProb float64
	// CodeSwitchProb inserts a Hindi fragment after a sentence (per
	// message).
	CodeSwitchProb float64
	// RunOnProb joins two words without a space.
	RunOnProb float64
}

// SMSNoise is the heavy noise of text messages.
var SMSNoise = Config{
	LingoProb: 0.45, TypoProb: 0.08, DropVowelProb: 0.06,
	CaseNoiseProb: 0.05, DropPunctProb: 0.5, CodeSwitchProb: 0.25,
	RunOnProb: 0.04,
}

// EmailNoise is the lighter noise of customer emails (Fig 1: spelling
// slips and run-ons, but few shorthands).
var EmailNoise = Config{
	LingoProb: 0.06, TypoProb: 0.05, DropVowelProb: 0.01,
	CaseNoiseProb: 0.02, DropPunctProb: 0.2, CodeSwitchProb: 0.05,
	RunOnProb: 0.06,
}

// AgentNoteNoise approximates hurried contact-centre agent notes (Fig 1's
// first examples): heavy shorthand, light typos.
var AgentNoteNoise = Config{
	LingoProb: 0.35, TypoProb: 0.07, DropVowelProb: 0.08,
	CaseNoiseProb: 0.03, DropPunctProb: 0.4, CodeSwitchProb: 0.0,
	RunOnProb: 0.05,
}

// Noiser applies a Config to clean text.
type Noiser struct {
	cfg Config
}

// New returns a Noiser for the config.
func New(cfg Config) *Noiser { return &Noiser{cfg: cfg} }

// typo applies one random keyboard-level corruption to w.
func typo(r *rng.RNG, w string) string {
	if len(w) == 0 {
		return w
	}
	b := []byte(strings.ToLower(w))
	pos := r.Intn(len(b))
	switch r.Intn(4) {
	case 0: // neighbour substitution
		if nb, ok := keyboardNeighbors[b[pos]]; ok && len(nb) > 0 {
			b[pos] = nb[r.Intn(len(nb))]
		}
	case 1: // transposition
		if pos+1 < len(b) {
			b[pos], b[pos+1] = b[pos+1], b[pos]
		}
	case 2: // doubling
		b = append(b[:pos+1], b[pos:]...)
	default: // deletion
		if len(b) > 1 {
			b = append(b[:pos], b[pos+1:]...)
		}
	}
	return string(b)
}

// dropVowels removes interior vowels, keeping the first letter.
func dropVowels(w string) string {
	if len(w) <= 2 {
		return w
	}
	var b strings.Builder
	b.WriteByte(w[0])
	for i := 1; i < len(w); i++ {
		switch w[i] {
		case 'a', 'e', 'i', 'o', 'u':
		default:
			b.WriteByte(w[i])
		}
	}
	if b.Len() < 2 {
		return w
	}
	return b.String()
}

// isPunct reports whether the byte is not an ASCII letter or digit: a
// punctuation mark, or a byte of a multi-byte character.
func isPunct(c byte) bool {
	return !(c >= 'a' && c <= 'z') && !(c >= 'A' && c <= 'Z') && !(c >= '0' && c <= '9')
}

// nextWord returns the first word of s and what follows it, splitting
// where strings.Fields splits: on unicode.IsSpace, ASCII or not. The word
// is empty when s holds none.
func nextWord(s string) (word, rest string) {
	start := -1
	for i := 0; i < len(s); {
		c, size := rune(s[i]), 1
		if c >= utf8.RuneSelf {
			c, size = utf8.DecodeRuneInString(s[i:])
		}
		if !unicode.IsSpace(c) {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			return s[start:i], s[i:]
		}
		i += size
	}
	if start < 0 {
		return "", ""
	}
	return s[start:], ""
}

// Apply corrupts the message. Word order is preserved; individual words
// are replaced by lingo, typos or vowel-dropped forms, punctuation is
// thinned, and code-switch fragments may be appended. The text is walked
// once into one builder; a word is lower-cased only where a branch reads
// its lower-case form.
func (n *Noiser) Apply(r *rng.RNG, text string) string {
	var b strings.Builder
	b.Grow(len(text) + 16) // and room for a code-switch fragment
	for w, rest := nextWord(text); w != ""; w, rest = nextWord(rest) {
		core := w
		for len(core) > 0 && isPunct(core[len(core)-1]) {
			core = core[:len(core)-1]
		}
		trailPunct := w[len(core):]
		switch {
		case core == "":
		case n.cfg.LingoProb > 0 && r.Bool(n.cfg.LingoProb):
			if subs, ok := smsLingo[strings.ToLower(core)]; ok {
				core = rng.Pick(r, subs)
			} else if r.Bool(n.cfg.TypoProb * 2) {
				core = typo(r, core)
			}
		case r.Bool(n.cfg.TypoProb):
			core = typo(r, core)
		case r.Bool(n.cfg.DropVowelProb):
			core = dropVowels(strings.ToLower(core))
		}
		if r.Bool(n.cfg.CaseNoiseProb) {
			if r.Bool(0.5) {
				core = strings.ToUpper(core)
			} else {
				core = strings.ToLower(core)
			}
		}
		if trailPunct != "" && r.Bool(n.cfg.DropPunctProb) {
			trailPunct = ""
		}
		if core == "" && trailPunct == "" {
			continue
		}
		// A word after the first is run on to the one before it, or
		// follows it after a space.
		if b.Len() > 0 && !r.Bool(n.cfg.RunOnProb) {
			b.WriteByte(' ')
		}
		b.WriteString(core)
		b.WriteString(trailPunct)
	}
	if r.Bool(n.cfg.CodeSwitchProb) {
		b.WriteByte(' ')
		b.WriteString(rng.Pick(r, hindiPhrases))
	}
	return b.String()
}

// LingoTable returns a copy of the shorthand → canonical mapping.
func LingoTable() map[string]string {
	out := make(map[string]string)
	for full, shorts := range smsLingo {
		for _, s := range shorts {
			out[s] = full
		}
	}
	return out
}

// HindiMarkers returns tokens that indicate code-switched (non-English)
// content, for the language filter.
func HindiMarkers() []string {
	set := map[string]bool{}
	var out []string
	for _, p := range hindiPhrases {
		for _, w := range strings.Fields(p) {
			if !set[w] {
				set[w] = true
				out = append(out, w)
			}
		}
	}
	return out
}

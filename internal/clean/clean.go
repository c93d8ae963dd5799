// Package clean implements the two-step e-mail/SMS cleaning stage of
// §IV.A.2:
//
// Step 1 — gatekeeping: detect spam messages and non-English messages and
// discard them; strip e-mail headers, disclaimers and promotional
// material; segregate the agent's (quoted) conversation from the
// customer's so only customer text flows downstream.
//
// Step 2 — noise handling: normalize SMS lingo and shorthand through
// domain dictionaries, collapse casing and whitespace.
//
// The package reports *why* a message was discarded, which the churn
// use case needs ("Around 18% of emails could not be linked. Most of
// these emails were from people who were not customers") and the
// operational dashboards track.
package clean

import (
	"strings"

	"bivoc/internal/classify"
	"bivoc/internal/noise"
	"bivoc/internal/textproc"
)

// Verdict describes the gatekeeping outcome for one message.
type Verdict uint8

// Gatekeeping outcomes.
const (
	VerdictKeep Verdict = iota
	VerdictSpam
	VerdictNonEnglish
	VerdictEmpty
)

func (v Verdict) String() string {
	switch v {
	case VerdictKeep:
		return "keep"
	case VerdictSpam:
		return "spam"
	case VerdictNonEnglish:
		return "non-english"
	case VerdictEmpty:
		return "empty"
	default:
		return "unknown"
	}
}

// Cleaner bundles the spam filter, language filter and normalization
// dictionaries.
type Cleaner struct {
	spam *classify.NaiveBayes
	// spamScore is spam compiled once its seed corpora are trained.
	spamScore   *classify.Scorer
	lingo       map[string]string
	hindiMarker map[string]bool
	// NonEnglishThreshold is the fraction of marker/unknown tokens above
	// which a message is ruled non-English.
	NonEnglishThreshold float64
	// SpamThreshold is the spam-posterior cut.
	SpamThreshold float64
}

// hamSeedCorpus grounds the "not spam" side of the gate with generic
// customer-service language.
var hamSeedCorpus = []string{
	"my bill is too high this month please check",
	"i am not able to access the network since yesterday",
	"please confirm the receipt of my payment",
	"i want to deactivate this sms pack it was never requested",
	"the call center officer assured the request will be carried out",
	"my plan is not appropriate i want to change it",
	"i was charged for a service i did not subscribe to",
	"please tell me the balance on my account",
	"the gprs connection is not working on my phone",
	"i would like to book a car for next week",
}

// NewCleaner builds a cleaner with the built-in seed corpora and
// dictionaries.
func NewCleaner() *Cleaner {
	c := &Cleaner{
		spam:                classify.NewNaiveBayes(),
		lingo:               noise.LingoTable(),
		hindiMarker:         make(map[string]bool),
		NonEnglishThreshold: 0.4,
		SpamThreshold:       0.9,
	}
	for _, s := range noise.SpamSeedCorpus() {
		c.spam.Train("spam", textproc.Words(s))
	}
	for _, s := range hamSeedCorpus {
		c.spam.Train("ham", textproc.Words(s))
	}
	c.spamScore = c.spam.Compile()
	for _, w := range noise.HindiMarkers() {
		c.hindiMarker[w] = true
	}
	return c
}

// Gate applies step-1 filtering to a customer message body, returning
// the verdict. Keep processing the text only on VerdictKeep.
func (c *Cleaner) Gate(text string) Verdict {
	return c.gate(textproc.Words(text))
}

// gate is Gate over the words of a message.
func (c *Cleaner) gate(words []string) Verdict {
	if len(words) == 0 {
		return VerdictEmpty
	}
	if c.nonEnglishFraction(words) > c.NonEnglishThreshold {
		return VerdictNonEnglish
	}
	if c.spamScore.Posterior(words, "spam") >= c.SpamThreshold {
		return VerdictSpam
	}
	return VerdictKeep
}

// nonEnglishFraction estimates how much of the message is code-switched:
// the share of its words that are known romanized Hindi markers.
func (c *Cleaner) nonEnglishFraction(words []string) float64 {
	if len(words) == 0 {
		return 0
	}
	hits := 0
	for _, w := range words {
		if c.hindiMarker[w] {
			hits++
		}
	}
	return float64(hits) / float64(len(words))
}

// StripEmail removes headers, quoted agent text, promotional blocks and
// disclaimers from a raw email, returning only the customer-authored
// body.
func StripEmail(raw string) string {
	lines := strings.Split(raw, "\n")
	var body []string
	inHeader := true
	for _, line := range lines {
		trimmed := strings.TrimSpace(line)
		if inHeader {
			if trimmed == "" {
				inHeader = false
			}
			continue
		}
		switch {
		case strings.HasPrefix(trimmed, noise.AgentQuotePrefix) || strings.HasPrefix(line, noise.AgentQuotePrefix):
			continue // agent conversation — segregated out
		case strings.HasPrefix(trimmed, noise.DisclaimerMarker):
			continue
		case strings.HasPrefix(trimmed, noise.PromoMarker):
			continue
		case trimmed == "":
			continue
		default:
			body = append(body, trimmed)
		}
	}
	return strings.Join(body, " ")
}

// StripSignature removes a trailing signature block — everything from
// the last "regards"/"thanks and regards"/"sincerely" marker onward.
// The linking engine wants the signature (it carries the sender's
// identity); the churn classifier must NOT see it, or it memorizes
// customer names and phone numbers instead of learning churn language.
func StripSignature(text string) string {
	lowered := strings.ToLower(text)
	cut := -1
	for _, marker := range []string{"regards", "sincerely", "yours truly"} {
		if i := strings.LastIndex(lowered, marker); i > cut {
			cut = i
		}
	}
	if cut <= 0 {
		return text
	}
	return strings.TrimSpace(text[:cut])
}

// NormalizeSMS expands shorthand tokens through the lingo dictionary,
// lowercases, and collapses whitespace — step 2 of §IV.A.2. Unknown noisy
// tokens pass through unchanged; the paper notes "still a large number
// of words are noisy and are not utilized fully".
func (c *Cleaner) NormalizeSMS(text string) string {
	return c.normalize(textproc.Words(text))
}

// normalize is NormalizeSMS over the words of a message, which it
// overwrites.
func (c *Cleaner) normalize(words []string) string {
	for i, w := range words {
		if full, ok := c.lingo[w]; ok {
			words[i] = full
		}
	}
	return strings.Join(words, " ")
}

// CleanedMessage is the output of the full pipeline for one message.
type CleanedMessage struct {
	Verdict Verdict
	// Text is the normalized customer text (empty unless VerdictKeep).
	Text string
}

// ProcessEmail runs the full email pipeline: strip → gate → normalize.
func (c *Cleaner) ProcessEmail(raw string) CleanedMessage {
	return c.ProcessSMS(StripEmail(raw))
}

// ProcessSMS runs the SMS pipeline: gate → normalize, over one
// tokenization of the text.
func (c *Cleaner) ProcessSMS(text string) CleanedMessage {
	words := textproc.Words(text)
	if v := c.gate(words); v != VerdictKeep {
		return CleanedMessage{Verdict: v}
	}
	return CleanedMessage{Verdict: VerdictKeep, Text: c.normalize(words)}
}

package clean

import (
	"strings"
	"testing"

	"bivoc/internal/noise"
	"bivoc/internal/rng"
	"bivoc/internal/textproc"
)

func TestGateKeepsCustomerText(t *testing.T) {
	c := NewCleaner()
	texts := []string{
		"my bill is too high i almost feel robbed when paying",
		"i was charged for sms pack but did not request activation",
		"please confirm the receipt of payment of rs 500",
	}
	for _, s := range texts {
		if v := c.Gate(s); v != VerdictKeep {
			t.Errorf("legit message gated as %v: %q", v, s)
		}
	}
}

func TestGateDiscardsSpam(t *testing.T) {
	c := NewCleaner()
	r := rng.New(31)
	caught := 0
	const n = 40
	for i := 0; i < n; i++ {
		if c.Gate(noise.SpamEmail(r.Split(uint64(i)))) == VerdictSpam {
			caught++
		}
	}
	if caught < n*3/4 {
		t.Errorf("spam gate caught only %d/%d", caught, n)
	}
}

func TestGateDiscardsNonEnglish(t *testing.T) {
	c := NewCleaner()
	if v := c.Gate("kya hua paisa wapas karo jaldi karo band karo"); v != VerdictNonEnglish {
		t.Errorf("hindi message gated as %v", v)
	}
	// Mostly English with one fragment should pass (Fig 1's mixed SMS are
	// still used — only predominantly non-English ones are dropped).
	if v := c.Gate("no care for customer is what you focus on kya hua"); v != VerdictKeep {
		t.Errorf("mixed message gated as %v", v)
	}
}

func TestGateEmpty(t *testing.T) {
	c := NewCleaner()
	if v := c.Gate("   "); v != VerdictEmpty {
		t.Errorf("empty gated as %v", v)
	}
}

func TestGateTrainable(t *testing.T) {
	c := NewCleaner()
	novel := "quantum flux discount vortex mega deal vortex flux"
	for i := 0; i < 5; i++ {
		c.spam.Train("spam", textproc.Words(novel))
	}
	c.spamScore = c.spam.Compile()
	if v := c.Gate(novel); v != VerdictSpam {
		t.Errorf("trained spam still gated as %v", v)
	}
	c2 := NewCleaner()
	c2.spam.Train("ham", textproc.Words("my flux capacitor bill is wrong"))
	c2.spamScore = c2.spam.Compile()
	if v := c2.Gate("my flux capacitor bill is wrong"); v != VerdictKeep {
		t.Errorf("trained ham gated as %v", v)
	}
}

func TestStripEmail(t *testing.T) {
	r := rng.New(7)
	body := "the call center officer assured that my request will be carried out but nothing happened"
	raw := noise.WrapEmail(r, body, noise.WrapEmailOptions{
		From: "c@x", To: "care@y", Subject: "complaint",
		QuoteAgent: true, Promo: true, Disclaimer: true,
	})
	got := StripEmail(raw)
	if !strings.Contains(got, "officer assured") {
		t.Errorf("customer text lost: %q", got)
	}
	for _, banned := range []string{"From:", "Subject:", noise.DisclaimerMarker, noise.PromoMarker, "Dear customer"} {
		if strings.Contains(got, banned) {
			t.Errorf("stripped email still contains %q", banned)
		}
	}
}

func TestStripEmailNoHeaders(t *testing.T) {
	// A message with no blank line is treated as all-header; nothing
	// survives — matching mail semantics where the body follows the first
	// blank line.
	if got := StripEmail("just one line"); got != "" {
		t.Errorf("header-only email produced body %q", got)
	}
	if got := StripEmail("From: a\n\nreal body here"); got != "real body here" {
		t.Errorf("got %q", got)
	}
}

func TestNormalizeSMS(t *testing.T) {
	c := NewCleaner()
	got := c.NormalizeSMS("Pls cnfrm ur pymt thx")
	for _, want := range []string{"please", "confirm", "your", "payment", "thanks"} {
		if !strings.Contains(got, want) {
			t.Errorf("normalized %q missing %q", got, want)
		}
	}
}

func TestNormalizeSMSTrailingPeriodShorthand(t *testing.T) {
	c := NewCleaner()
	got := c.NormalizeSMS("pl. confirm the receipt")
	if !strings.HasPrefix(got, "please") {
		t.Errorf("got %q", got)
	}
}

func TestNormalizeSMSPassesUnknownTokens(t *testing.T) {
	c := NewCleaner()
	got := c.NormalizeSMS("karanagar receipt 1243213")
	if !strings.Contains(got, "karanagar") || !strings.Contains(got, "1243213") {
		t.Errorf("unknown tokens dropped: %q", got)
	}
}

// TestNormalizeSMSOutputs pins step 2 byte for byte, through NormalizeSMS
// and through the one tokenization ProcessSMS shares with the gate.
func TestNormalizeSMSOutputs(t *testing.T) {
	c := NewCleaner()
	for _, tc := range []struct{ in, want string }{
		{"Pls cnfrm ur pymt thx", "please confirm your payment thanks"},
		{"pl. confirm the receipt", "please confirm the receipt"},
		{"pl confirm the receipt.", "please confirm the receipt"},
		{"didn't get ur msg, can't call u 2moro", "didn't get your message can't call you tomorrow"},
		{"PLS Call ME B4 2Moro", "please call me before tomorrow"},
		{"thx!!! ...pls??? (asap) -- u r gr8", "thanks please asap you are great"},
		{"pls\xffcnfrm \xc3( ur\xe2\x82 pymt", "please confirm your payment"},
		{" \t\n", ""},
	} {
		if got := c.NormalizeSMS(tc.in); got != tc.want {
			t.Errorf("NormalizeSMS(%q) = %q, want %q", tc.in, got, tc.want)
		}
		if got := c.ProcessSMS(tc.in); got.Verdict == VerdictKeep && got.Text != tc.want {
			t.Errorf("ProcessSMS(%q).Text = %q, want %q", tc.in, got.Text, tc.want)
		}
	}
}

func TestProcessEmailPipeline(t *testing.T) {
	c := NewCleaner()
	r := rng.New(8)
	body := "i am not able to access gprs on my phone pls help"
	raw := noise.WrapEmail(r, body, noise.WrapEmailOptions{
		From: "c@x", To: "care@y", Subject: "gprs", Disclaimer: true,
	})
	msg := c.ProcessEmail(raw)
	if msg.Verdict != VerdictKeep {
		t.Fatalf("verdict %v", msg.Verdict)
	}
	if !strings.Contains(msg.Text, "please") {
		t.Errorf("lingo not normalized: %q", msg.Text)
	}
	spamRaw := noise.WrapEmail(r, noise.SpamEmail(r), noise.WrapEmailOptions{From: "s@x", To: "c@y", Subject: "win"})
	if got := c.ProcessEmail(spamRaw); got.Verdict != VerdictSpam || got.Text != "" {
		t.Errorf("spam email processed: %+v", got)
	}
}

func TestProcessSMSPipeline(t *testing.T) {
	c := NewCleaner()
	msg := c.ProcessSMS("pls cnfrm receipt of pymt rs 500")
	if msg.Verdict != VerdictKeep || !strings.Contains(msg.Text, "payment") {
		t.Errorf("sms pipeline: %+v", msg)
	}
	if got := c.ProcessSMS(""); got.Verdict != VerdictEmpty {
		t.Errorf("empty sms: %+v", got)
	}
}

func TestVerdictString(t *testing.T) {
	cases := map[Verdict]string{
		VerdictKeep: "keep", VerdictSpam: "spam",
		VerdictNonEnglish: "non-english", VerdictEmpty: "empty",
		Verdict(99): "unknown",
	}
	for v, want := range cases {
		if v.String() != want {
			t.Errorf("%d → %q", v, v.String())
		}
	}
}

func TestRoundTripNoiseThenClean(t *testing.T) {
	// End-to-end: noisy SMS should normalize back toward the clean text.
	c := NewCleaner()
	n := noise.New(noise.Config{LingoProb: 1}) // only lingo substitutions
	clean := "please confirm your payment thanks"
	noisy := n.Apply(rng.New(4), clean)
	if noisy == clean {
		t.Skip("noise produced no change for this seed")
	}
	restored := c.NormalizeSMS(noisy)
	if restored != clean {
		t.Errorf("lingo round trip: %q → %q → %q", clean, noisy, restored)
	}
}

func TestStripSignature(t *testing.T) {
	cases := map[string]string{
		"my bill is too high. regards john smith 9876543210": "my bill is too high.",
		"my bill is too high. Sincerely Mary":                "my bill is too high.",
		"no signature here at all":                           "no signature here at all",
		"regards up front should not cut everything":         "regards up front should not cut everything",
	}
	for in, want := range cases {
		if got := StripSignature(in); got != want {
			t.Errorf("StripSignature(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStripSignatureKeepsLastMarker(t *testing.T) {
	in := "thanks and regards was mentioned mid text. more content. regards bob"
	got := StripSignature(in)
	if strings.Contains(got, "bob") {
		t.Errorf("signature survived: %q", got)
	}
	if !strings.Contains(got, "more content") {
		t.Errorf("body lost: %q", got)
	}
}

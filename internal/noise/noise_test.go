package noise

import (
	"strings"
	"testing"

	"bivoc/internal/rng"
)

// ApplyFields is Apply as it was written before it walked the text into
// one builder: strings.Fields, every word lower-cased, run-ons appended
// to the previous word, strings.Join. It is the oracle Apply is held to
// (apply_test.go): the same text and the same draws.
func (n *Noiser) ApplyFields(r *rng.RNG, text string) string {
	words := strings.Fields(text)
	var out []string
	for _, w := range words {
		trailPunct := ""
		core := w
		for len(core) > 0 && isPunct(core[len(core)-1]) {
			trailPunct = core[len(core)-1:] + trailPunct
			core = core[:len(core)-1]
		}
		lower := strings.ToLower(core)
		switch {
		case core == "":
		case n.cfg.LingoProb > 0 && r.Bool(n.cfg.LingoProb):
			if subs, ok := smsLingo[lower]; ok {
				core = rng.Pick(r, subs)
			} else if r.Bool(n.cfg.TypoProb * 2) {
				core = typo(r, core)
			}
		case r.Bool(n.cfg.TypoProb):
			core = typo(r, core)
		case r.Bool(n.cfg.DropVowelProb):
			core = dropVowels(lower)
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
		tok := core + trailPunct
		if tok == "" {
			continue
		}
		if len(out) > 0 && r.Bool(n.cfg.RunOnProb) {
			out[len(out)-1] += tok
		} else {
			out = append(out, tok)
		}
	}
	msg := strings.Join(out, " ")
	if r.Bool(n.cfg.CodeSwitchProb) {
		msg = msg + " " + rng.Pick(r, hindiPhrases)
	}
	return msg
}

func TestApplyDeterministic(t *testing.T) {
	n := New(SMSNoise)
	text := "please confirm the receipt of payment thanks"
	a := n.Apply(rng.New(3), text)
	b := n.Apply(rng.New(3), text)
	if a != b {
		t.Errorf("non-deterministic: %q vs %q", a, b)
	}
}

func TestApplyZeroConfigIdentity(t *testing.T) {
	n := New(Config{})
	text := "please confirm the receipt of payment. thanks"
	if got := n.Apply(rng.New(1), text); got != text {
		t.Errorf("zero noise altered text: %q", got)
	}
}

func TestSMSNoiseProducesLingo(t *testing.T) {
	n := New(SMSNoise)
	r := rng.New(17)
	lingoSeen := false
	lingo := LingoTable()
	for i := 0; i < 50 && !lingoSeen; i++ {
		out := n.Apply(r.Split(uint64(i)), "please confirm your payment thanks you are great")
		for _, w := range strings.Fields(out) {
			if _, ok := lingo[strings.ToLower(w)]; ok {
				lingoSeen = true
				break
			}
		}
	}
	if !lingoSeen {
		t.Error("SMS noise never produced shorthand")
	}
}

func TestSMSNoiseCodeSwitches(t *testing.T) {
	n := New(Config{CodeSwitchProb: 1})
	out := n.Apply(rng.New(5), "this is not solving my problem")
	markers := map[string]bool{}
	for _, m := range HindiMarkers() {
		markers[m] = true
	}
	found := false
	for _, w := range strings.Fields(out) {
		if markers[w] {
			found = true
		}
	}
	if !found {
		t.Errorf("no code-switch fragment in %q", out)
	}
}

func TestNoiseChangesText(t *testing.T) {
	n := New(SMSNoise)
	text := "customer was charged for sms pack but did not give request for activation please deactivate"
	changed := 0
	for i := 0; i < 20; i++ {
		if n.Apply(rng.New(uint64(i)), text) != text {
			changed++
		}
	}
	if changed < 15 {
		t.Errorf("heavy SMS noise left text unchanged in %d/20 runs", 20-changed)
	}
}

func TestEmailNoiseLighterThanSMS(t *testing.T) {
	text := "please confirm the receipt of payment for your account thanks and regards"
	dist := func(a, b string) int {
		// crude token-level difference count
		aw, bw := strings.Fields(a), strings.Fields(b)
		diff := len(aw) - len(bw)
		if diff < 0 {
			diff = -diff
		}
		n := len(aw)
		if len(bw) < n {
			n = len(bw)
		}
		for i := 0; i < n; i++ {
			if aw[i] != bw[i] {
				diff++
			}
		}
		return diff
	}
	smsTotal, emailTotal := 0, 0
	for i := 0; i < 30; i++ {
		smsTotal += dist(text, New(SMSNoise).Apply(rng.New(uint64(i)), text))
		emailTotal += dist(text, New(EmailNoise).Apply(rng.New(uint64(1000+i)), text))
	}
	if emailTotal >= smsTotal {
		t.Errorf("email noise (%d) should be lighter than sms noise (%d)", emailTotal, smsTotal)
	}
}

func TestIsLingoRoundTrip(t *testing.T) {
	table := LingoTable()
	if full, ok := table["pls"]; !ok || full != "please" {
		t.Errorf("pls → %q %v", full, ok)
	}
	if _, ok := table["reservation"]; ok {
		t.Error("content word should not be lingo")
	}
	if table["u"] != "you" || table["thx"] != "thanks" {
		t.Error("lingo table incomplete")
	}
}

func TestTypoPreservesRoughShape(t *testing.T) {
	r := rng.New(9)
	for i := 0; i < 200; i++ {
		w := "payment"
		got := typo(r, w)
		if len(got) < len(w)-1 || len(got) > len(w)+1 {
			t.Fatalf("typo changed length too much: %q", got)
		}
	}
	if typo(r, "") != "" {
		t.Error("empty word typo should be empty")
	}
}

func TestDropVowels(t *testing.T) {
	if got := dropVowels("problem"); got != "prblm" {
		t.Errorf("got %q", got)
	}
	if got := dropVowels("ok"); got != "ok" {
		t.Errorf("short word altered: %q", got)
	}
	// A word that would vanish keeps its original form.
	if got := dropVowels("aeiou"); got == "" || len(got) < 2 {
		t.Errorf("all-vowel word reduced to %q", got)
	}
}

func TestWrapEmailStructure(t *testing.T) {
	r := rng.New(11)
	body := "my bill is too high i almost feel robbed when paying"
	raw := WrapEmail(r, body, WrapEmailOptions{
		From: "cust@example.com", To: "care@telco.example",
		Subject: "billing complaint", QuoteAgent: true, Promo: true, Disclaimer: true,
	})
	for _, want := range []string{"From: cust@example.com", "Subject: billing complaint", body, DisclaimerMarker, PromoMarker, AgentQuotePrefix} {
		if !strings.Contains(raw, want) {
			t.Errorf("wrapped email missing %q", want)
		}
	}
}

func TestWrapEmailMinimal(t *testing.T) {
	r := rng.New(12)
	raw := WrapEmail(r, "body text", WrapEmailOptions{From: "a@b", To: "c@d", Subject: "s"})
	if strings.Contains(raw, DisclaimerMarker) || strings.Contains(raw, PromoMarker) {
		t.Error("optional blocks attached when disabled")
	}
}

func TestSpamEmailVaries(t *testing.T) {
	r := rng.New(13)
	seen := map[string]bool{}
	for i := 0; i < 20; i++ {
		seen[SpamEmail(r.Split(uint64(i)))] = true
	}
	if len(seen) < 5 {
		t.Errorf("spam generator too repetitive: %d distinct", len(seen))
	}
}

func TestSpamSeedCorpusIsCopy(t *testing.T) {
	a := SpamSeedCorpus()
	a[0] = "mutated"
	b := SpamSeedCorpus()
	if b[0] == "mutated" {
		t.Error("SpamSeedCorpus leaks internal state")
	}
	if len(b) < 5 {
		t.Error("spam seed corpus too small")
	}
}

func TestHindiMarkersNonEmpty(t *testing.T) {
	m := HindiMarkers()
	if len(m) < 5 {
		t.Errorf("only %d hindi markers", len(m))
	}
	seen := map[string]bool{}
	for _, w := range m {
		if seen[w] {
			t.Errorf("duplicate marker %q", w)
		}
		seen[w] = true
	}
}

func TestRunOnJoinsWords(t *testing.T) {
	n := New(Config{RunOnProb: 1})
	out := n.Apply(rng.New(2), "a b c d")
	if len(strings.Fields(out)) != 1 {
		t.Errorf("run-on should join everything: %q", out)
	}
}

package noise_test

import (
	"strings"
	"testing"

	"bivoc/internal/noise"
	"bivoc/internal/rng"
	"bivoc/internal/synth"
)

// applyConfigs are the three noise models the corpora are written with.
var applyConfigs = []struct {
	name string
	cfg  noise.Config
}{
	{"sms", noise.SMSNoise},
	{"email", noise.EmailNoise},
	{"agent-note", noise.AgentNoteNoise},
}

// applyInputs are the texts Apply is held to its strings.Fields form on:
// the corpora's phrases, received e-mails and SMS of a small telecom
// world, and the splits strings.Fields makes that a byte walk could miss.
func applyInputs(t testing.TB) []string {
	in := []string{
		"",
		"   ",
		"please\tconfirm\nthe  receipt\r\nof   payment",
		"\v\fleading and trailing spaces \t\n",
		"no-break space and　ideographic　space",
		"next\u0085line and line separators",
		"!!! ... ?! - , . :)",
		"i am waiting...",
		"...",
		"PLEASE Confirm THE Payment, Thanks!",
		"café naïve résumé déjà-vu",
		"invalid \xff\xfe utf-8 \xc3",
		"rs. 500/- a/c no. 9876543210",
	}
	for _, phrases := range synth.DriverPhraseSeed() {
		in = append(in, phrases...)
	}
	in = append(in, noise.SpamSeedCorpus()...)
	for _, s := range synth.TrainingSentences() {
		in = append(in, strings.Join(s, " "))
	}
	cfg := synth.DefaultTelecomConfig()
	cfg.NumCustomers, cfg.Emails, cfg.SMS = 60, 20, 20
	w, err := synth.NewTelecomWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(w.Emails, w.SMS...) {
		in = append(in, m.Raw)
	}
	return in
}

// requireApplyMatches holds Apply to ApplyFields on one text and seed: the
// same output, and the same draws (the generator left in the same state).
func requireApplyMatches(t *testing.T, name string, cfg noise.Config, text string, seed uint64) {
	t.Helper()
	n := noise.New(cfg)
	got, want := rng.New(seed), rng.New(seed)
	if a, b := n.Apply(got, text), n.ApplyFields(want, text); a != b {
		t.Fatalf("%s, seed %d, %q: Apply wrote %q, the strings.Fields form %q", name, seed, text, a, b)
	}
	if got.Uint64() != want.Uint64() {
		t.Fatalf("%s, seed %d, %q: Apply drew a different number of values", name, seed, text)
	}
}

// TestApplyMatchesFieldsForm: Apply writes what the strings.Fields form
// of it writes, with the same draws, under every corpus's noise model.
func TestApplyMatchesFieldsForm(t *testing.T) {
	inputs := applyInputs(t)
	for _, c := range applyConfigs {
		for seed := uint64(0); seed < 500; seed++ {
			for _, text := range inputs {
				requireApplyMatches(t, c.name, c.cfg, text, seed)
			}
		}
	}
}

func FuzzNoiseApply(f *testing.F) {
	for i, text := range applyInputs(f) {
		f.Add(text, uint64(i))
	}
	f.Fuzz(func(t *testing.T, text string, seed uint64) {
		for _, c := range applyConfigs {
			requireApplyMatches(t, c.name, c.cfg, text, seed)
		}
	})
}

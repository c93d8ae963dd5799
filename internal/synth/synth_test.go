package synth

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"bivoc/internal/asr"
	"bivoc/internal/rng"
)

func TestLexiconsNonTrivial(t *testing.T) {
	if len(GivenNames()) < 100 {
		t.Errorf("given names: %d", len(GivenNames()))
	}
	if len(Surnames()) < 100 {
		t.Errorf("surnames: %d", len(Surnames()))
	}
	if len(Cities()) < 10 {
		t.Errorf("cities: %d", len(Cities()))
	}
	if len(VehicleTypes()) != 5 {
		t.Errorf("vehicle types: %v", VehicleTypes())
	}
}

func TestLexiconCopies(t *testing.T) {
	g := GivenNames()
	g[0] = "mutated"
	if GivenNames()[0] == "mutated" {
		t.Error("GivenNames leaks internal slice")
	}
}

func TestVehicleIndicatorsCoverCanonicals(t *testing.T) {
	ind := VehicleIndicators()
	seen := map[string]bool{}
	for _, canon := range ind {
		seen[canon] = true
	}
	for _, vt := range VehicleTypes() {
		if !seen[vt] {
			t.Errorf("vehicle type %q has no indicators", vt)
		}
	}
	// The paper's two examples must be present.
	if ind["seven seater"] != "suv" {
		t.Error("seven seater should indicate suv")
	}
	if ind["chevy impala"] != "full-size" {
		t.Error("chevy impala should indicate full-size")
	}
}

func smallCarConfig() CarRentalConfig {
	cfg := DefaultCarRentalConfig()
	cfg.NumAgents = 12
	cfg.NumCustomers = 60
	cfg.CallsPerDay = 40
	cfg.Days = 3
	return cfg
}

func TestCarRentalWorldDeterministic(t *testing.T) {
	cfg := smallCarConfig()
	w1, err := NewCarRentalWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := NewCarRentalWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c1 := w1.GenerateCalls(0, 2)
	c2 := w2.GenerateCalls(0, 2)
	if len(c1) != len(c2) {
		t.Fatal("different call counts")
	}
	for i := range c1 {
		if c1[i].Outcome != c2[i].Outcome || strings.Join(c1[i].Transcript, " ") != strings.Join(c2[i].Transcript, " ") {
			t.Fatalf("call %d differs between identical seeds", i)
		}
	}
}

func TestCarRentalWorldValidation(t *testing.T) {
	if _, err := NewCarRentalWorld(CarRentalConfig{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestCarRentalStructuredTables(t *testing.T) {
	w, err := NewCarRentalWorld(smallCarConfig())
	if err != nil {
		t.Fatal(err)
	}
	custTab := w.DB.MustTable("customers")
	if custTab.Len() != len(w.Customers) {
		t.Errorf("customer table %d rows, want %d", custTab.Len(), len(w.Customers))
	}
	calls := w.GenerateCalls(0, 3)
	resTab := w.DB.MustTable("reservations")
	reservations := 0
	for _, c := range calls {
		if c.Outcome == OutcomeReservation {
			reservations++
		}
	}
	if resTab.Len() != reservations {
		t.Errorf("reservations table %d rows, want %d", resTab.Len(), reservations)
	}
}

func TestTranscriptsPronounceable(t *testing.T) {
	w, err := NewCarRentalWorld(smallCarConfig())
	if err != nil {
		t.Fatal(err)
	}
	lex := BuildLexicon()
	calls := w.GenerateCalls(0, 2)
	for _, c := range calls {
		if _, err := lex.Phones(c.Transcript); err != nil {
			t.Fatalf("call %s transcript not covered by lexicon: %v", c.ID, err)
		}
	}
}

func TestOutcomeModelShape(t *testing.T) {
	m := DefaultOutcomeModel()
	// Orderings the paper's tables rely on.
	if !(m.ConversionProb(IntentStrong, false, false) > m.ConversionProb(IntentWeak, false, false)) {
		t.Error("strong start must convert better than weak")
	}
	if !(m.ConversionProb(IntentWeak, false, true) > m.ConversionProb(IntentWeak, true, false)) {
		t.Error("discount must out-lift value selling")
	}
	if p := m.ConversionProb(IntentStrong, true, true); p > 0.98 {
		t.Errorf("probability cap broken: %v", p)
	}
}

func TestCallMarginalsNearPaperTables(t *testing.T) {
	cfg := DefaultCarRentalConfig()
	cfg.CallsPerDay = 400
	cfg.Days = 10
	w, err := NewCarRentalWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	calls := w.GenerateCalls(0, cfg.Days)
	type tally struct{ res, unb int }
	var strong, weak, value, disc tally
	for _, c := range calls {
		if c.Intent == IntentService {
			continue
		}
		add := func(t *tally) {
			if c.Outcome == OutcomeReservation {
				t.res++
			} else {
				t.unb++
			}
		}
		if c.Intent == IntentStrong {
			add(&strong)
		} else {
			add(&weak)
		}
		if c.UsedValue {
			add(&value)
		}
		if c.UsedDisc {
			add(&disc)
		}
	}
	share := func(t tally) float64 { return float64(t.res) / float64(t.res+t.unb) }
	// Paper: strong 63%, weak 32%, value-selling 59%, discount 72%.
	if s := share(strong); math.Abs(s-0.63) > 0.06 {
		t.Errorf("strong-start conversion %v, want ≈0.63", s)
	}
	if s := share(weak); math.Abs(s-0.32) > 0.06 {
		t.Errorf("weak-start conversion %v, want ≈0.32", s)
	}
	if s := share(value); math.Abs(s-0.59) > 0.08 {
		t.Errorf("value-selling conversion %v, want ≈0.59", s)
	}
	if s := share(disc); math.Abs(s-0.72) > 0.08 {
		t.Errorf("discount conversion %v, want ≈0.72", s)
	}
}

func TestTrainAgentsShiftsPropensities(t *testing.T) {
	w, err := NewCarRentalWorld(smallCarConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := w.Agents[0].PValueSelling
	firstFive := []int{0, 1, 2, 3, 4}
	w.TrainAgentSet(firstFive)
	for i := 0; i < 5; i++ {
		if !w.Agents[i].Trained {
			t.Errorf("agent %d not trained", i)
		}
	}
	if w.Agents[5].Trained {
		t.Error("agent 5 should be untouched")
	}
	if w.Agents[0].PValueSelling <= before {
		t.Error("training should raise value-selling propensity")
	}
	// Idempotent.
	after := w.Agents[0].PValueSelling
	w.TrainAgentSet(firstFive)
	if w.Agents[0].PValueSelling != after {
		t.Error("re-training shifted propensities again")
	}
}

func TestServiceCallsPresent(t *testing.T) {
	w, err := NewCarRentalWorld(smallCarConfig())
	if err != nil {
		t.Fatal(err)
	}
	calls := w.GenerateCalls(0, 3)
	service := 0
	for _, c := range calls {
		if c.Intent == IntentService {
			service++
			if c.Outcome != OutcomeService {
				t.Error("service call with non-service outcome")
			}
		}
	}
	frac := float64(service) / float64(len(calls))
	if math.Abs(frac-0.25) > 0.1 {
		t.Errorf("service share = %v, want ≈0.25", frac)
	}
}

func TestBuildLexiconClasses(t *testing.T) {
	lex := BuildLexicon()
	held := map[string]bool{}
	for _, words := range [][]string{TemplateWords(), BankingWords(), CityWords(), GivenNames(), Surnames(), ConfusableNameVariants(3)} {
		for _, w := range words {
			if lex.Contains(w) {
				held[w] = true
			}
		}
	}
	if len(held) < 300 {
		t.Errorf("lexicon too small: %d", len(held))
	}
	if lex.ClassOfWord("smith") != asr.ClassName {
		t.Error("smith should be a name")
	}
	if lex.ClassOfWord("seven") != asr.ClassDigit {
		t.Error("seven should be a digit word")
	}
	if lex.ClassOfWord("discount") != asr.ClassGeneric {
		t.Error("discount should be generic")
	}
	if lex.ClassOfWord("seattle") != asr.ClassPlace {
		t.Error("seattle should be a place")
	}
}

func TestBuildRecognizerDecodesCleanCall(t *testing.T) {
	rec, err := BuildRecognizer(asr.ChannelConfig{}, asr.DefaultDecoderConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref := []string{"i", "want", "to", "book", "a", "car", "today"}
	hyp, err := rec.Transcribe(rng.New(1), ref)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(hyp, " ") != strings.Join(ref, " ") {
		t.Errorf("clean decode: %v", hyp)
	}
}

// --- telecom ---

func smallTelecomConfig() TelecomConfig {
	cfg := DefaultTelecomConfig()
	cfg.NumCustomers = 200
	cfg.Emails = 400
	cfg.SMS = 600
	return cfg
}

func TestTelecomWorldShape(t *testing.T) {
	w, err := NewTelecomWorld(smallTelecomConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Emails) != 400 || len(w.SMS) != 600 {
		t.Fatalf("message counts: %d emails %d sms", len(w.Emails), len(w.SMS))
	}
	prepaid := 0
	churners := 0
	for _, c := range w.Customers {
		if c.Plan == "prepaid" {
			prepaid++
		}
		if c.Churned {
			churners++
		}
	}
	if frac := float64(prepaid) / float64(len(w.Customers)); math.Abs(frac-0.78) > 0.08 {
		t.Errorf("prepaid share = %v, want ≈0.78", frac)
	}
	if churners == 0 {
		t.Fatal("no churners generated")
	}
	if w.DB.MustTable("subscribers").Len() != len(w.Customers) {
		t.Error("subscriber table incomplete")
	}
}

func TestTelecomValidation(t *testing.T) {
	if _, err := NewTelecomWorld(TelecomConfig{}); err == nil {
		t.Error("zero config accepted")
	}
	for _, tc := range []struct {
		name string
		cfg  TelecomConfig
		want string
	}{
		// Seed 1's only subscriber churns: nobody is left to write the
		// routine traffic a message outside the churner share is.
		{"all churned", TelecomConfig{Seed: 1, NumCustomers: 1, Emails: 5, SMS: 5}, "no non-churner"},
		{"negative emails", TelecomConfig{Seed: 2, NumCustomers: 10, Emails: -1, SMS: 5}, "negative message count"},
		{"negative sms", TelecomConfig{Seed: 2, NumCustomers: 10, Emails: 5, SMS: -3}, "negative message count"},
	} {
		w, err := NewTelecomWorld(tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %+v gave world %v and error %v, want an error naming %q", tc.name, tc.cfg, w != nil, err, tc.want)
		}
	}
}

// TestTelecomWorldPinned: one small world's customers, e-mails, SMS and
// subscriber rows hash to what the sequential generator wrote (the
// constant was computed before messages were generated in parallel and
// noise.Apply walked its text into one builder), at any GOMAXPROCS. A
// change to the hash is a change to every telecom corpus.
func TestTelecomWorldPinned(t *testing.T) {
	const pinned = "3991070f62e02df33962ce6467ec4213d664cc534c53f8f29dd5294b6a12b900"
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		w, err := NewTelecomWorld(smallTelecomConfig())
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		fmt.Fprintf(h, "%#v\n%#v\n%#v\n", w.Customers, w.Emails, w.SMS)
		if err := w.DB.MustTable("subscribers").ExportCSV(h); err != nil {
			t.Fatal(err)
		}
		if sum := fmt.Sprintf("%x", h.Sum(nil)); sum != pinned {
			t.Errorf("GOMAXPROCS %d: world hashes to %s, pinned is %s", procs, sum, pinned)
		}
	}
}

func TestTelecomMessageLabels(t *testing.T) {
	w, err := NewTelecomWorld(smallTelecomConfig())
	if err != nil {
		t.Fatal(err)
	}
	churnMsgs, strangerMsgs, spamMsgs := 0, 0, 0
	for _, m := range w.Emails {
		if m.FromChurner {
			churnMsgs++
			if m.CustIdx < 0 {
				t.Error("churner message without customer")
			}
			if !w.Customers[m.CustIdx].Churned {
				t.Error("FromChurner inconsistent with customer record")
			}
		}
		if m.CustIdx < 0 && !m.Spam {
			strangerMsgs++
		}
		if m.Spam {
			spamMsgs++
		}
	}
	if churnMsgs == 0 || strangerMsgs == 0 || spamMsgs == 0 {
		t.Errorf("corpus lacks variety: churn=%d stranger=%d spam=%d", churnMsgs, strangerMsgs, spamMsgs)
	}
	// Stranger share near config (18% of non-spam).
	frac := float64(strangerMsgs) / float64(len(w.Emails))
	if math.Abs(frac-0.18*(1-0.08)) > 0.07 {
		t.Errorf("stranger share = %v", frac)
	}
}

func TestChurnerMessagesCarryDrivers(t *testing.T) {
	w, err := NewTelecomWorld(smallTelecomConfig())
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]Message{}, w.Emails...), w.SMS...)
	withDrivers, churnTotal := 0, 0
	for _, m := range all {
		if m.FromChurner {
			churnTotal++
			if len(m.Drivers) > 0 {
				withDrivers++
			}
		}
	}
	if churnTotal == 0 {
		t.Fatal("no churner messages")
	}
	// Not every churner message is angry (a realistic fraction is
	// routine traffic), but the majority must carry drivers.
	if float64(withDrivers) < 0.4*float64(churnTotal) {
		t.Errorf("too few churner messages with drivers: %d/%d", withDrivers, churnTotal)
	}
	if withDrivers == churnTotal && churnTotal > 20 {
		t.Error("every churner message carries drivers; routine share missing")
	}
}

func TestTelecomEmailsWrapped(t *testing.T) {
	w, err := NewTelecomWorld(smallTelecomConfig())
	if err != nil {
		t.Fatal(err)
	}
	headered := 0
	for _, m := range w.Emails {
		if strings.Contains(m.Raw, "From: ") {
			headered++
		}
	}
	if headered != len(w.Emails) {
		t.Errorf("only %d/%d emails have headers", headered, len(w.Emails))
	}
}

func TestTelecomDeterministic(t *testing.T) {
	cfg := smallTelecomConfig()
	w1, _ := NewTelecomWorld(cfg)
	w2, _ := NewTelecomWorld(cfg)
	for i := range w1.Emails {
		if w1.Emails[i].Raw != w2.Emails[i].Raw {
			t.Fatalf("email %d differs between identical seeds", i)
		}
	}
}

func TestSeedHelpers(t *testing.T) {
	seeds := DriverPhraseSeed()
	if len(seeds) != len(ChurnDrivers()) {
		t.Errorf("driver seeds incomplete")
	}
	seeds[DriverBilling][0] = "mutated"
	if DriverPhraseSeed()[DriverBilling][0] == "mutated" {
		t.Error("DriverPhraseSeed leaks state")
	}
	if len(routineBodies) < 5 || len(churnClosers) < 2 {
		t.Error("seed inventories too small")
	}
}

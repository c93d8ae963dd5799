package churn

import (
	"reflect"
	"strings"
	"testing"

	"bivoc/internal/clean"
	"bivoc/internal/synth"
)

func TestFeaturize(t *testing.T) {
	feats := Featurize("the bill is too high")
	// Content words: bill, high (too/is/the are stopwords).
	want := []string{"bill", "high", "bill_high"}
	if !reflect.DeepEqual(feats, want) {
		t.Errorf("features = %v", feats)
	}
	if got := Featurize(""); len(got) != 0 {
		t.Errorf("empty features: %v", got)
	}
}

func trainSmall(t *testing.T) *Predictor {
	t.Helper()
	p := NewPredictor(0.3)
	churnTexts := []string{
		"i am switching to a cheaper provider goodbye",
		"my problem is still not solved i want to disconnect",
		"porting my number to another operator",
		"competitor offers better tariff i am leaving",
		"bill too high i feel robbed closing my account",
	}
	stayTexts := []string{
		"please confirm the receipt of my payment",
		"kindly tell me the balance on my account",
		"i want to recharge my prepaid number",
		"please activate the new data pack",
		"what are the details of my current plan",
		"my recharge was successful thank you",
	}
	for _, s := range churnTexts {
		p.Train(s, true)
	}
	for _, s := range stayTexts {
		p.Train(s, false)
	}
	return p
}

func TestPredictSeparates(t *testing.T) {
	p := trainSmall(t)
	if !p.Predict("i am leaving for a cheaper provider disconnect my number") {
		t.Error("obvious churner missed")
	}
	if p.Predict("please confirm my payment thank you") {
		t.Error("routine message flagged")
	}
}

func TestScoreMonotoneWithEvidence(t *testing.T) {
	p := trainSmall(t)
	weak := p.Score("my bill seems high")
	strong := p.Score("bill too high i am leaving switching provider disconnect")
	if strong <= weak {
		t.Errorf("more churn evidence should raise score: %v vs %v", weak, strong)
	}
}

func TestThresholdDefault(t *testing.T) {
	if NewPredictor(0).Threshold != 0.3 || NewPredictor(2).Threshold != 0.3 {
		t.Error("invalid thresholds should default")
	}
	if NewPredictor(0.42).Threshold != 0.42 {
		t.Error("valid threshold overridden")
	}
}

func TestTrainedFlag(t *testing.T) {
	p := NewPredictor(0.3)
	if p.Trained() {
		t.Error("fresh predictor claims training")
	}
	p.Train("hello billing", false)
	if !p.Trained() {
		t.Error("trained predictor claims otherwise")
	}
}

func TestTopChurnFeatures(t *testing.T) {
	p := trainSmall(t)
	top := p.TopChurnFeatures(10)
	joined := strings.Join(top, " ")
	if !strings.Contains(joined, "provider") && !strings.Contains(joined, "disconnect") &&
		!strings.Contains(joined, "leaving") && !strings.Contains(joined, "cheaper") {
		t.Errorf("top churn features look wrong: %v", top)
	}
}

// confusion holds Predict's verdicts on a labeled corpus.
type confusion struct{ TP, FP, TN, FN int }

func evaluate(p *Predictor, texts []string, churner []bool) confusion {
	var e confusion
	for i, text := range texts {
		switch pred := p.Predict(text); {
		case pred && churner[i]:
			e.TP++
		case pred:
			e.FP++
		case churner[i]:
			e.FN++
		default:
			e.TN++
		}
	}
	return e
}

func TestEvaluate(t *testing.T) {
	p := trainSmall(t)
	texts := []string{
		"switching to cheaper provider goodbye",
		"please confirm my payment",
		"balance enquiry please",
	}
	labels := []bool{true, false, false}
	e := evaluate(p, texts, labels)
	if e.TP != 1 || e.TN != 2 || e.FP != 0 || e.FN != 0 {
		t.Errorf("evaluation: %+v", e)
	}
}

func TestDriverDetector(t *testing.T) {
	d := NewDriverDetector(synth.DriverPhraseSeed())
	drivers := d.Detect("my bill is too high i almost feel robbed when paying")
	found := false
	for _, dr := range drivers {
		if dr == synth.DriverBilling {
			found = true
		}
	}
	if !found {
		t.Errorf("billing driver missed: %v", drivers)
	}
	if got := d.Detect("have a nice day"); len(got) != 0 {
		t.Errorf("phantom drivers: %v", got)
	}
}

func TestDriverDetectorMultiple(t *testing.T) {
	d := NewDriverDetector(synth.DriverPhraseSeed())
	text := "the network is always down in my area and my bill is too high"
	drivers := d.Detect(text)
	if len(drivers) < 2 {
		t.Errorf("expected 2 drivers, got %v", drivers)
	}
}

func TestEndToEndOnSyntheticWorld(t *testing.T) {
	cfg := synth.DefaultTelecomConfig()
	cfg.NumCustomers = 600
	cfg.Emails = 1800
	cfg.SMS = 0
	w, err := synth.NewTelecomWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Train on the first two months, evaluate on the last (the paper's
	// "we took emails and sms messages for one month and identified
	// potential churners"). Messages flow through the cleaning stage as
	// in the real pipeline: headers, disclaimers and signatures out.
	cleaner := clean.NewCleaner()
	p := NewPredictor(0.3)
	var evalTexts []string
	var evalLabels []bool
	for _, m := range w.Emails {
		if m.Spam || m.CustIdx < 0 {
			continue
		}
		cm := cleaner.ProcessEmail(m.Raw)
		if cm.Verdict != clean.VerdictKeep {
			continue
		}
		text := clean.StripSignature(cm.Text)
		if m.Month < synth.TelecomMonths-1 {
			p.Train(text, m.FromChurner)
		} else {
			evalTexts = append(evalTexts, text)
			evalLabels = append(evalLabels, m.FromChurner)
		}
	}
	if !p.Trained() || len(evalTexts) == 0 {
		t.Fatal("split produced empty sets")
	}
	e := evaluate(p, evalTexts, evalLabels)
	// With heavy imbalance we mainly require useful recall without
	// flagging everything.
	if e.TP+e.FN > 0 && float64(e.TP)/float64(e.TP+e.FN) < 0.2 {
		t.Errorf("churn recall too low: %+v", e)
	}
	flagged := e.TP + e.FP
	if flagged > (e.TP+e.FP+e.TN+e.FN)/2 {
		t.Errorf("flagging more than half the corpus: %+v", e)
	}
}

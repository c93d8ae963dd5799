package lm

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func sentences(text string) [][]string {
	var out [][]string
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		out = append(out, strings.Fields(line))
	}
	return out
}

var tinyCorpus = sentences(`
i want to book a car
i want to book a full size car
i would like to book a car
can i get a rate for a car
book a car for me please
i want a good rate
`)

func buildBigram(t *testing.T) *NGram {
	t.Helper()
	tr := NewTrainer(2)
	tr.AddCorpus(tinyCorpus)
	m, err := tr.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuildEmptyFails(t *testing.T) {
	if _, err := NewTrainer(2).Build(); err == nil {
		t.Error("empty trainer should fail to build")
	}
}

func TestOrderClamped(t *testing.T) {
	tr := NewTrainer(0)
	tr.Add([]string{"a"})
	m, err := tr.Build()
	if err != nil {
		t.Fatal(err)
	}
	if m.Order() != 1 {
		t.Errorf("order = %d", m.Order())
	}
}

func TestProbsSumToOne(t *testing.T) {
	m := buildBigram(t)
	// For a fixed context the probabilities over vocab + EOS should sum
	// to <= 1 (remaining mass is reserved for unknowns) and close to 1.
	contexts := [][]string{{}, {"i"}, {"book", "a"}, {"unseen-context-word"}}
	for _, ctx := range contexts {
		sum := 0.0
		for _, w := range append(m.Vocabulary(), EOS) {
			sum += math.Exp(m.LogProb(ctx, w))
		}
		if sum > 1.0+1e-9 {
			t.Errorf("ctx %v: probability mass %v exceeds 1", ctx, sum)
		}
		if sum < 0.95 {
			t.Errorf("ctx %v: probability mass %v too small", ctx, sum)
		}
	}
}

func TestSeenBigramBeatsUnseen(t *testing.T) {
	m := buildBigram(t)
	seen := m.LogProb([]string{"book"}, "a")      // frequent bigram
	unseen := m.LogProb([]string{"book"}, "rate") // never follows "book"
	if seen <= unseen {
		t.Errorf("seen bigram %v should beat unseen %v", seen, unseen)
	}
}

func TestFrequentWordBeatsRare(t *testing.T) {
	m := buildBigram(t)
	frequent := m.LogProb(nil, "a")
	rare := m.LogProb(nil, "please")
	if frequent <= rare {
		t.Errorf("frequent unigram %v should beat rare %v", frequent, rare)
	}
}

func TestOOVFinite(t *testing.T) {
	m := buildBigram(t)
	lp := m.LogProb([]string{"i"}, "zzzgarbage")
	if math.IsInf(lp, 0) || math.IsNaN(lp) {
		t.Errorf("OOV log-prob should be finite, got %v", lp)
	}
	inv := m.LogProb([]string{"i"}, "want")
	if lp >= inv {
		t.Errorf("OOV %v should score below in-vocab %v", lp, inv)
	}
}

func TestInVocab(t *testing.T) {
	m := buildBigram(t)
	if !m.InVocab("car") || m.InVocab("zebra") {
		t.Error("vocab membership wrong")
	}
	if !m.InVocab(EOS) {
		t.Error("EOS should be scoreable")
	}
}

func TestLogProbAlwaysNegativeProperty(t *testing.T) {
	m := buildBigram(t)
	vocab := m.Vocabulary()
	f := func(ctxIdx, wIdx uint8) bool {
		ctx := []string{vocab[int(ctxIdx)%len(vocab)]}
		w := vocab[int(wIdx)%len(vocab)]
		lp := m.LogProb(ctx, w)
		return lp < 0 && !math.IsInf(lp, 0) && !math.IsNaN(lp)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTrigramUsesLongerContext(t *testing.T) {
	tr := NewTrainer(3)
	tr.AddCorpus(tinyCorpus)
	m, err := tr.Build()
	if err != nil {
		t.Fatal(err)
	}
	// "to book a" occurs; after ["to","book"], "a" should be very likely.
	lp := m.LogProb([]string{"want", "to", "book"}, "a")
	if math.Exp(lp) < 0.5 {
		t.Errorf("P(a | to book) = %v, want > 0.5", math.Exp(lp))
	}
}

func TestInterpolatedValidation(t *testing.T) {
	m := buildBigram(t)
	if _, err := NewInterpolated(nil, nil); err == nil {
		t.Error("empty interpolation should fail")
	}
	if _, err := NewInterpolated([]Model{m}, []float64{-1}); err == nil {
		t.Error("negative weight should fail")
	}
	if _, err := NewInterpolated([]Model{m}, []float64{0}); err == nil {
		t.Error("zero weight total should fail")
	}
	if _, err := NewInterpolated([]Model{m}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestInterpolatedBlends(t *testing.T) {
	domain := buildBigram(t)
	trGen := NewTrainer(2)
	trGen.AddCorpus(sentences("the weather is nice today\nthe stock market fell"))
	general, err := trGen.Build()
	if err != nil {
		t.Fatal(err)
	}
	ip, err := NewInterpolated([]Model{domain, general}, []float64{0.8, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	// Domain word scores well, general-only word still scores finitely.
	carLP := ip.LogProb(nil, "car")
	weatherLP := ip.LogProb(nil, "weather")
	if math.IsInf(weatherLP, 0) {
		t.Error("general-vocab word should be finite under interpolation")
	}
	if carLP <= weatherLP {
		t.Errorf("domain word %v should beat general-only word %v at weight 0.8", carLP, weatherLP)
	}
	if !ip.InVocab("weather") || !ip.InVocab("car") || ip.InVocab("zebra") {
		t.Error("interpolated vocab membership wrong")
	}
	if ip.Order() != 2 {
		t.Errorf("interpolated order = %d", ip.Order())
	}
	// Union vocabulary contains both sides.
	vocab := map[string]bool{}
	for _, w := range ip.Vocabulary() {
		vocab[w] = true
	}
	if !vocab["car"] || !vocab["weather"] {
		t.Error("union vocabulary incomplete")
	}
}

func TestInterpolatedWeightsNormalized(t *testing.T) {
	m := buildBigram(t)
	ip1, err := NewInterpolated([]Model{m}, []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	ip2, err := NewInterpolated([]Model{m}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	a := ip1.LogProb([]string{"i"}, "want")
	b := ip2.LogProb([]string{"i"}, "want")
	if math.Abs(a-b) > 1e-12 {
		t.Errorf("weight scaling changed probabilities: %v vs %v", a, b)
	}
}

func TestInterpolatedMassBounded(t *testing.T) {
	domain := buildBigram(t)
	trGen := NewTrainer(2)
	trGen.AddCorpus(sentences("hello world again"))
	general, _ := trGen.Build()
	ip, err := NewInterpolated([]Model{domain, general}, []float64{0.7, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, w := range append(ip.Vocabulary(), EOS) {
		sum += math.Exp(ip.LogProb([]string{"i"}, w))
	}
	if sum > 1.0+1e-6 {
		t.Errorf("interpolated mass %v exceeds 1", sum)
	}
}

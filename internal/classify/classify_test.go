package classify

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func trainToy(t *testing.T) *NaiveBayes {
	t.Helper()
	nb := NewNaiveBayes()
	spam := []string{
		"win lottery prize money now",
		"cheap pills buy now limited offer",
		"free money claim prize today",
		"earn money from home now",
	}
	ham := []string{
		"my bill is too high this month",
		"please check my account balance",
		"the network is not working in my area",
		"i want to change my plan",
	}
	for _, s := range spam {
		nb.Train("spam", strings.Fields(s))
	}
	for _, s := range ham {
		nb.Train("ham", strings.Fields(s))
	}
	return nb
}

// LogPosteriors returns the unnormalized log-posterior per class,
// computed from the model's counts on every call. It and Posteriors are
// the oracle a compiled Scorer is held to (TestScorerMatchesPosteriors,
// FuzzNaiveBayesScorer).
func (nb *NaiveBayes) LogPosteriors(tokens []string) map[string]float64 {
	out := make(map[string]float64, len(nb.classes))
	v := float64(len(nb.vocab))
	for i, class := range nb.classes {
		lp := math.Log(float64(nb.docCounts[i]) / float64(nb.totalDocs))
		denom := float64(nb.totalWords[i]) + v
		for _, tok := range tokens {
			c := float64(nb.wordCounts[i][tok])
			lp += math.Log((c + 1) / denom)
		}
		out[class] = lp
	}
	return out
}

// Posteriors returns normalized class probabilities.
func (nb *NaiveBayes) Posteriors(tokens []string) map[string]float64 {
	logs := nb.LogPosteriors(tokens)
	// Log-sum-exp normalization.
	max := math.Inf(-1)
	for _, lp := range logs {
		if lp > max {
			max = lp
		}
	}
	total := 0.0
	for _, lp := range logs {
		total += math.Exp(lp - max)
	}
	out := make(map[string]float64, len(logs))
	for c, lp := range logs {
		out[c] = math.Exp(lp-max) / total
	}
	return out
}

func TestPredictSeparatesClasses(t *testing.T) {
	s := trainToy(t).Compile()
	for _, tc := range []struct{ text, want, other string }{
		{"claim your free prize money now", "spam", "ham"},
		{"my account bill is wrong", "ham", "spam"},
	} {
		toks := strings.Fields(tc.text)
		if want, other := s.Posterior(toks, tc.want), s.Posterior(toks, tc.other); want <= other {
			t.Errorf("%q scored %s %v, %s %v", tc.text, tc.want, want, tc.other, other)
		}
	}
}

func TestPredictUntrained(t *testing.T) {
	nb := NewNaiveBayes()
	if p := nb.Compile().Posterior([]string{"x"}, "spam"); p != 0 {
		t.Errorf("untrained classifier scored %v", p)
	}
	if nb.Trained() {
		t.Error("untrained reports trained")
	}
}

func TestPosteriorsNormalized(t *testing.T) {
	s := trainToy(t).Compile()
	f := func(words []string) bool {
		toks := make([]string, 0, len(words)%6)
		for i := 0; i < len(words)%6; i++ {
			toks = append(toks, words[i])
		}
		sum := 0.0
		for _, class := range []string{"spam", "ham"} {
			p := s.Posterior(toks, class)
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUnknownTokensNeutral(t *testing.T) {
	p := trainToy(t).Compile().Posterior([]string{"zzzz", "qqqq"}, "spam")
	// With equal doc counts, unknown-only documents should be near the
	// priors (1/2 each).
	if math.Abs(p-0.5) > 0.1 {
		t.Errorf("unknown-token posterior %v should be near prior", p)
	}
}

func TestTopFeatures(t *testing.T) {
	nb := trainToy(t)
	top := nb.TopFeatures("spam", 5)
	if len(top) != 5 {
		t.Fatalf("got %d features", len(top))
	}
	found := false
	for _, w := range top {
		if w == "money" || w == "prize" || w == "now" {
			found = true
		}
	}
	if !found {
		t.Errorf("spam features missing obvious words: %v", top)
	}
	if nb.TopFeatures("ghost", 3) != nil {
		t.Error("unknown class should have no features")
	}
	if got := nb.TopFeatures("spam", 100000); len(got) == 0 {
		t.Error("oversized n should clamp, not fail")
	}
}

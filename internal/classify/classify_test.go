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

func TestPredictSeparatesClasses(t *testing.T) {
	nb := trainToy(t)
	if post := nb.Posteriors(strings.Fields("claim your free prize money now")); post["spam"] <= post["ham"] {
		t.Errorf("spam scored %v", post)
	}
	if post := nb.Posteriors(strings.Fields("my account bill is wrong")); post["ham"] <= post["spam"] {
		t.Errorf("ham scored %v", post)
	}
}

func TestPredictUntrained(t *testing.T) {
	nb := NewNaiveBayes()
	if post := nb.Posteriors([]string{"x"}); len(post) != 0 {
		t.Errorf("untrained classifier scored %v", post)
	}
	if nb.Trained() {
		t.Error("untrained reports trained")
	}
}

func TestPosteriorsNormalized(t *testing.T) {
	nb := trainToy(t)
	f := func(words []string) bool {
		toks := make([]string, 0, len(words)%6)
		for i := 0; i < len(words)%6; i++ {
			toks = append(toks, words[i])
		}
		post := nb.Posteriors(toks)
		sum := 0.0
		for _, p := range post {
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
	nb := trainToy(t)
	post := nb.Posteriors([]string{"zzzz", "qqqq"})
	// With equal doc counts, unknown-only documents should be near the
	// priors (1/2 each).
	if math.Abs(post["spam"]-0.5) > 0.1 {
		t.Errorf("unknown-token posterior %v should be near prior", post)
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

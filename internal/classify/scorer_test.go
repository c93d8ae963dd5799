package classify

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"bivoc/internal/rng"
)

// randomModel trains a model of k classes on seeded documents over a
// small vocabulary, so tokens repeat within and across classes, and
// returns it with the vocabulary it drew from.
func randomModel(seed uint64, k int) (*NaiveBayes, []string) {
	r := rng.New(seed)
	vocab := make([]string, 5+r.Intn(40))
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%d", i)
	}
	nb := NewNaiveBayes()
	for d := 1 + r.Intn(30); d > 0; d-- {
		doc := make([]string, r.Intn(12))
		for i := range doc {
			doc[i] = rng.Pick(r, vocab)
		}
		nb.Train(fmt.Sprintf("c%d", r.Intn(k)), doc)
	}
	return nb, vocab
}

// requireScorerMatches holds the compiled scorer of nb to the per-call
// oracle on tokens: every class's log posterior bit for bit, and with two
// classes the normalized posterior too. With more, the oracle normalizes
// in a map's order, so only the log terms are comparable.
func requireScorerMatches(t *testing.T, nb *NaiveBayes, tokens []string) {
	t.Helper()
	s := nb.Compile()
	logs := s.logPosteriors(tokens, nil)
	want := nb.LogPosteriors(tokens)
	if len(logs) != len(want) {
		t.Fatalf("%v: scorer has %d classes, the model %d", tokens, len(logs), len(want))
	}
	post := nb.Posteriors(tokens)
	for class, lp := range want {
		if got := logs[s.classIdx[class]]; math.Float64bits(got) != math.Float64bits(lp) {
			t.Fatalf("%v: class %s log posterior %v, oracle %v", tokens, class, got, lp)
		}
		if len(want) > 2 {
			continue
		}
		if got := s.Posterior(tokens, class); math.Float64bits(got) != math.Float64bits(post[class]) {
			t.Fatalf("%v: class %s posterior %v, oracle %v", tokens, class, got, post[class])
		}
	}
	if got := s.Posterior(tokens, "no such class"); got != 0 {
		t.Fatalf("%v: an unknown class scored %v", tokens, got)
	}
}

// TestScorerMatchesPosteriors: a compiled scorer answers what the model
// computed from its counts on every call, bit for bit, for models of two
// and three classes and documents of seen, unseen and repeated tokens,
// and the empty document.
func TestScorerMatchesPosteriors(t *testing.T) {
	for _, k := range []int{2, 3} {
		for seed := uint64(0); seed < 200; seed++ {
			nb, vocab := randomModel(seed, k)
			r := rng.New(seed).SplitString("documents")
			requireScorerMatches(t, nb, nil)
			for d := 0; d < 20; d++ {
				doc := make([]string, r.Intn(15))
				for i := range doc {
					if r.Bool(0.2) {
						doc[i] = fmt.Sprintf("unseen%d", r.Intn(5))
					} else {
						doc[i] = rng.Pick(r, vocab)
					}
				}
				requireScorerMatches(t, nb, doc)
			}
		}
	}
}

// TestScorerFrozen: training a model further leaves an earlier Scorer
// as it was.
func TestScorerFrozen(t *testing.T) {
	nb := trainToy(t)
	s := nb.Compile()
	toks := strings.Fields("free prize vortex")
	before := s.Posterior(toks, "spam")
	for i := 0; i < 5; i++ {
		nb.Train("ham", []string{"vortex", "prize"})
	}
	if after := s.Posterior(toks, "spam"); after != before {
		t.Errorf("compiled posterior moved from %v to %v after training", before, after)
	}
	if nb.Compile().Posterior(toks, "spam") == before {
		t.Error("a recompiled scorer ignored the new training")
	}
}

func TestScorerPosteriorAllocatesNothing(t *testing.T) {
	s := trainToy(t).Compile()
	toks := strings.Fields("claim your free prize money now zzzz")
	if n := testing.AllocsPerRun(100, func() { s.Posterior(toks, "spam") }); n != 0 {
		t.Errorf("a two-class Posterior allocates %v times", n)
	}
}

func FuzzNaiveBayesScorer(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed, uint8(2), "w0 w1 w1 unseen w3")
		f.Add(seed, uint8(3), "")
	}
	f.Add(uint64(99), uint8(1), "w2 w2 w2")
	f.Add(uint64(7), uint8(5), "w0 w4 w9 nope w1")
	f.Fuzz(func(t *testing.T, seed uint64, classes uint8, doc string) {
		nb, _ := randomModel(seed, 1+int(classes%5))
		requireScorerMatches(t, nb, strings.Fields(doc))
	})
}

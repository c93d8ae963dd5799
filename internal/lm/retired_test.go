package lm

// Nothing shipped reaches what this file declares (the root package's
// TestEveryInternalFunctionIsReachable). It left lm.go and tune.go (the whole file)
// in PR 24 and stays, as test code only, because the tests below pin it
// and a PR may retire only a few tests of the floor. It is a reference
// for nothing: delete each declaration with its tests.

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// SentenceLogProb returns the total log-probability of the sentence
// including the end-of-sentence transition.
func SentenceLogProb(m Model, sentence []string) float64 {
	lp := 0.0
	for i, w := range sentence {
		lp += m.LogProb(sentence[:i], w)
	}
	lp += m.LogProb(sentence, EOS)
	return lp
}

// Perplexity returns the per-token perplexity of the corpus under m,
// counting the EOS transition of each sentence as a token.
func Perplexity(m Model, corpus [][]string) float64 {
	lp := 0.0
	tokens := 0
	for _, s := range corpus {
		lp += SentenceLogProb(m, s)
		tokens += len(s) + 1
	}
	if tokens == 0 {
		return math.NaN()
	}
	return math.Exp(-lp / float64(tokens))
}

// TuneInterpolationWeights estimates linear-interpolation weights for
// component models by expectation-maximization on held-out text — the
// standard way the paper's "linearly combined with high weight given to
// call-center specific model" weights are actually chosen. Each EM
// iteration computes, for every held-out token, the posterior
// responsibility of each component, then re-normalizes.
//
// It returns the weight vector (summing to 1) and the final held-out
// log-likelihood per token.
func TuneInterpolationWeights(models []Model, heldout [][]string, iterations int) ([]float64, float64, error) {
	if len(models) == 0 {
		return nil, 0, errors.New("lm: no models to tune")
	}
	if len(heldout) == 0 {
		return nil, 0, errors.New("lm: no held-out data")
	}
	if iterations <= 0 {
		iterations = 10
	}
	k := len(models)
	weights := make([]float64, k)
	for i := range weights {
		weights[i] = 1 / float64(k)
	}
	// Pre-compute per-token component probabilities once; EM then only
	// re-weights them.
	type tokenProbs []float64 // one per component
	var probs []tokenProbs
	for _, sentence := range heldout {
		for pos := 0; pos <= len(sentence); pos++ {
			word := EOS
			if pos < len(sentence) {
				word = sentence[pos]
			}
			tp := make(tokenProbs, k)
			for ci, m := range models {
				tp[ci] = math.Exp(m.LogProb(sentence[:pos], word))
			}
			probs = append(probs, tp)
		}
	}
	var ll float64
	for it := 0; it < iterations; it++ {
		counts := make([]float64, k)
		ll = 0
		for _, tp := range probs {
			total := 0.0
			for ci := range tp {
				total += weights[ci] * tp[ci]
			}
			if total <= 0 {
				continue
			}
			ll += math.Log(total)
			for ci := range tp {
				counts[ci] += weights[ci] * tp[ci] / total
			}
		}
		sum := 0.0
		for _, c := range counts {
			sum += c
		}
		if sum <= 0 {
			break
		}
		for ci := range weights {
			weights[ci] = counts[ci] / sum
		}
	}
	return weights, ll / float64(len(probs)), nil
}

// NewTunedInterpolated tunes weights on held-out data and returns the
// resulting interpolated model along with the learned weights.
func NewTunedInterpolated(models []Model, heldout [][]string, iterations int) (*Interpolated, []float64, error) {
	weights, _, err := TuneInterpolationWeights(models, heldout, iterations)
	if err != nil {
		return nil, nil, err
	}
	ip, err := NewInterpolated(models, weights)
	if err != nil {
		return nil, nil, err
	}
	return ip, weights, nil
}

func corpusFrom(text string) [][]string {
	var out [][]string
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		out = append(out, strings.Fields(line))
	}
	return out
}

func buildModel(t *testing.T, corpus [][]string) *NGram {
	t.Helper()
	tr := NewTrainer(2)
	tr.AddCorpus(corpus)
	m, err := tr.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTuneWeightsPrefersDomainModel(t *testing.T) {
	domainCorpus := corpusFrom(`
i want to book a car
book a car for me please
a good rate for a car
i want a discount
`)
	generalCorpus := corpusFrom(`
the weather is nice today
we watched a movie last night
the train was late again
`)
	domain := buildModel(t, domainCorpus)
	general := buildModel(t, generalCorpus)
	// Held-out call-centre text: EM should put most weight on the domain
	// model — "high weight given to call-center specific model".
	heldout := corpusFrom(`
i want to book a good car
a discount rate for me please
`)
	weights, ll, err := TuneInterpolationWeights([]Model{domain, general}, heldout, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(weights) != 2 {
		t.Fatalf("weights = %v", weights)
	}
	if math.Abs(weights[0]+weights[1]-1) > 1e-9 {
		t.Errorf("weights not normalized: %v", weights)
	}
	if weights[0] <= weights[1] {
		t.Errorf("domain weight %v should dominate general %v", weights[0], weights[1])
	}
	if weights[0] < 0.7 {
		t.Errorf("domain weight %v unexpectedly low", weights[0])
	}
	if math.IsNaN(ll) || ll >= 0 {
		t.Errorf("held-out log-likelihood %v implausible", ll)
	}
}

func TestTuneWeightsImprovesPerplexity(t *testing.T) {
	domain := buildModel(t, corpusFrom("i want to book a car\na good rate please"))
	general := buildModel(t, corpusFrom("the weather is nice\nthe market fell again"))
	heldout := corpusFrom("i want a good car\nbook a rate please")

	tuned, weights, err := NewTunedInterpolated([]Model{domain, general}, heldout, 15)
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := NewInterpolated([]Model{domain, general}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	pt, pu := Perplexity(tuned, heldout), Perplexity(uniform, heldout)
	if pt > pu+1e-9 {
		t.Errorf("tuned perplexity %v should not exceed uniform %v (weights %v)", pt, pu, weights)
	}
}

func TestTuneWeightsErrors(t *testing.T) {
	m := buildModel(t, corpusFrom("a b c"))
	if _, _, err := TuneInterpolationWeights(nil, corpusFrom("a"), 5); err == nil {
		t.Error("no models accepted")
	}
	if _, _, err := TuneInterpolationWeights([]Model{m}, nil, 5); err == nil {
		t.Error("no held-out accepted")
	}
}

func TestTuneWeightsSingleModel(t *testing.T) {
	m := buildModel(t, corpusFrom("a b c\nc b a"))
	weights, _, err := TuneInterpolationWeights([]Model{m}, corpusFrom("a b"), 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(weights[0]-1) > 1e-9 {
		t.Errorf("single-model weight = %v", weights[0])
	}
}

func TestSentenceLogProbAdds(t *testing.T) {
	m := buildBigram(t)
	good := SentenceLogProb(m, []string{"i", "want", "to", "book", "a", "car"})
	bad := SentenceLogProb(m, []string{"car", "a", "book", "to", "want", "i"})
	if good <= bad {
		t.Errorf("natural order %v should beat reversed %v", good, bad)
	}
}

func TestPerplexityTrainVsGarbage(t *testing.T) {
	m := buildBigram(t)
	train := Perplexity(m, tinyCorpus)
	garbage := Perplexity(m, sentences("rate car please book\nme for like get"))
	if train >= garbage {
		t.Errorf("train ppl %v should be below garbage ppl %v", train, garbage)
	}
	if train < 1 {
		t.Errorf("perplexity cannot be below 1, got %v", train)
	}
	if !math.IsNaN(Perplexity(m, nil)) {
		t.Error("empty corpus perplexity should be NaN")
	}
}

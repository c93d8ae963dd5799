// Package lm implements the interpolated N-gram language model of the
// BIVoC ASR engine (§IV.A.1): "Independent N-gram models constructed from
// general purpose US English text and call center specific text are
// linearly combined with high weight given to call-center specific
// model."
//
// Each component model is a Witten-Bell smoothed N-gram model; components
// are combined by linear interpolation. Probabilities are exposed in log
// space. The decoder queries the model one word at a time with its
// history, so the hot path is LogProb(context, word).
package lm

import (
	"errors"
	"math"
	"strings"
)

// Sentence boundary markers. Trainers insert them automatically.
const (
	BOS = "<s>"
	EOS = "</s>"
	UNK = "<unk>"
)

// Model scores word sequences. Implementations must return a finite
// log-probability for any word, mapping out-of-vocabulary words to an
// unknown-word estimate.
type Model interface {
	// LogProb returns log P(word | context). The context is the full
	// preceding word sequence; the model uses as much of its tail as its
	// order allows.
	LogProb(context []string, word string) float64
	// Order returns the model's N-gram order (1 = unigram, 2 = bigram...).
	Order() int
	// Vocabulary returns the known words, excluding markers, in
	// unspecified order.
	Vocabulary() []string
	// InVocab reports whether the word was seen in training.
	InVocab(word string) bool
}

const ctxSep = "\x1f"

// NGram is a Witten-Bell smoothed N-gram model.
type NGram struct {
	order int
	// counts[k] maps a k-word context key to word counts; counts[0] has
	// the empty-context (unigram) counts under "".
	counts []map[string]map[string]int
	// ctxTotals[k] caches total and distinct-successor counts per context.
	ctxTotals []map[string]ctxStat
	vocabSize int
	unkProb   float64 // probability mass reserved for unseen words
	vocab     map[string]bool
}

type ctxStat struct {
	total    int // sum of counts after this context
	distinct int // number of distinct successor words
}

// Trainer accumulates N-gram counts.
type Trainer struct {
	order  int
	counts []map[string]map[string]int
	vocab  map[string]bool
}

// NewTrainer returns a trainer for an order-N model (N >= 1).
func NewTrainer(order int) *Trainer {
	if order < 1 {
		order = 1
	}
	t := &Trainer{order: order, vocab: make(map[string]bool)}
	t.counts = make([]map[string]map[string]int, order)
	for i := range t.counts {
		t.counts[i] = make(map[string]map[string]int)
	}
	return t
}

// Add accumulates one sentence (already tokenized, lowercase). Boundary
// markers are added internally.
func (t *Trainer) Add(sentence []string) {
	if len(sentence) == 0 {
		return
	}
	padded := make([]string, 0, len(sentence)+t.order)
	for i := 0; i < t.order-1; i++ {
		padded = append(padded, BOS)
	}
	padded = append(padded, sentence...)
	padded = append(padded, EOS)
	for _, w := range sentence {
		t.vocab[w] = true
	}
	for i := t.order - 1; i < len(padded); i++ {
		w := padded[i]
		for k := 0; k < t.order; k++ {
			// context of length k ending just before position i
			if i-k < 0 {
				break
			}
			key := strings.Join(padded[i-k:i], ctxSep)
			m := t.counts[k][key]
			if m == nil {
				m = make(map[string]int)
				t.counts[k][key] = m
			}
			m[w]++
		}
	}
}

// AddCorpus adds every sentence in the corpus.
func (t *Trainer) AddCorpus(corpus [][]string) {
	for _, s := range corpus {
		t.Add(s)
	}
}

// Build finalizes the counts into a queryable model.
func (t *Trainer) Build() (*NGram, error) {
	if len(t.vocab) == 0 {
		return nil, errors.New("lm: no training data")
	}
	m := &NGram{
		order:     t.order,
		counts:    t.counts,
		vocabSize: len(t.vocab) + 1, // +1 for EOS
		vocab:     t.vocab,
	}
	m.ctxTotals = make([]map[string]ctxStat, t.order)
	for k := range t.counts {
		m.ctxTotals[k] = make(map[string]ctxStat, len(t.counts[k]))
		for key, succ := range t.counts[k] {
			st := ctxStat{distinct: len(succ)}
			for _, c := range succ {
				st.total += c
			}
			m.ctxTotals[k][key] = st
		}
	}
	// Score an unknown word as one count of reserved mass spread over a
	// large assumed unseen vocabulary, so that summing over any plausible
	// closed word list (e.g. the union vocabulary of an interpolation)
	// cannot push total probability mass above 1.
	const assumedUnseenVocab = 1e6
	m.unkProb = 1.0 / (float64(m.ctxTotals[0][""].total+m.vocabSize) * assumedUnseenVocab)
	return m, nil
}

// Order implements Model.
func (m *NGram) Order() int { return m.order }

// InVocab implements Model.
func (m *NGram) InVocab(w string) bool { return m.vocab[w] || w == EOS }

// Vocabulary implements Model.
func (m *NGram) Vocabulary() []string {
	out := make([]string, 0, len(m.vocab))
	for w := range m.vocab {
		out = append(out, w)
	}
	return out
}

// prob returns the Witten-Bell probability of w after the k-word context
// key, recursing toward the unigram.
func (m *NGram) prob(k int, key, w string) float64 {
	if k == 0 {
		st := m.ctxTotals[0][""]
		c := m.counts[0][""][w]
		// Laplace-style floor blended with Witten-Bell shape at the
		// unigram level guarantees every vocabulary word scores > 0.
		return (float64(c) + 1) / float64(st.total+m.vocabSize)
	}
	st, ok := m.ctxTotals[k][key]
	if !ok || st.total == 0 {
		// Unseen context: back off entirely.
		return m.prob(k-1, chopContext(key), w)
	}
	c := m.counts[k][key][w]
	lower := m.prob(k-1, chopContext(key), w)
	t := float64(st.distinct)
	return (float64(c) + t*lower) / (float64(st.total) + t)
}

// chopContext removes the earliest word from a context key.
func chopContext(key string) string {
	if i := strings.Index(key, ctxSep); i >= 0 {
		return key[i+len(ctxSep):]
	}
	return ""
}

// LogProb implements Model.
func (m *NGram) LogProb(context []string, word string) float64 {
	if !m.InVocab(word) {
		return math.Log(m.unkProb)
	}
	k := m.order - 1
	if len(context) < k {
		// Pad with BOS on the left.
		padded := make([]string, 0, k)
		for i := 0; i < k-len(context); i++ {
			padded = append(padded, BOS)
		}
		padded = append(padded, context...)
		context = padded
	} else {
		context = context[len(context)-k:]
	}
	key := strings.Join(context, ctxSep)
	return math.Log(m.prob(k, key, word))
}

// Interpolated linearly combines component models: P = Σ wᵢ Pᵢ. The
// paper gives "high weight to the call-center specific model".
type Interpolated struct {
	models  []Model
	weights []float64
	order   int
}

// NewInterpolated combines the models with the given weights, which are
// normalized to sum to 1. It returns an error on mismatched lengths or
// non-positive total weight.
func NewInterpolated(models []Model, weights []float64) (*Interpolated, error) {
	if len(models) == 0 || len(models) != len(weights) {
		return nil, errors.New("lm: need one weight per model")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			return nil, errors.New("lm: negative interpolation weight")
		}
		total += w
	}
	if total <= 0 {
		return nil, errors.New("lm: zero total interpolation weight")
	}
	norm := make([]float64, len(weights))
	order := 0
	for i, w := range weights {
		norm[i] = w / total
		if models[i].Order() > order {
			order = models[i].Order()
		}
	}
	return &Interpolated{models: models, weights: norm, order: order}, nil
}

// LogProb implements Model.
func (ip *Interpolated) LogProb(context []string, word string) float64 {
	p := 0.0
	for i, m := range ip.models {
		p += ip.weights[i] * math.Exp(m.LogProb(context, word))
	}
	if p <= 0 {
		return math.Inf(-1)
	}
	return math.Log(p)
}

// Order implements Model.
func (ip *Interpolated) Order() int { return ip.order }

// InVocab implements Model.
func (ip *Interpolated) InVocab(w string) bool {
	for _, m := range ip.models {
		if m.InVocab(w) {
			return true
		}
	}
	return false
}

// Vocabulary implements Model: the union of component vocabularies.
func (ip *Interpolated) Vocabulary() []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range ip.models {
		for _, w := range m.Vocabulary() {
			if !seen[w] {
				seen[w] = true
				out = append(out, w)
			}
		}
	}
	return out
}

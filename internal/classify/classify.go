// Package classify provides the multinomial Naive Bayes text classifier
// used in two places in BIVoC: the spam gate of the e-mail/SMS cleaning
// stage (§IV.A.2 "we detect spam messages ... and discard them") and the
// churn predictor of §VI ("We trained a classifier using VoC of churners
// and non-churners to predict future churners").
//
// Callers cut the posterior at a threshold of their own, which is how the
// churn use case handles its heavily imbalanced classes (3% churners
// among 47,460 emails).
package classify

import (
	"math"
	"sort"
)

// NaiveBayes is a multinomial Naive Bayes model over word features with
// Laplace smoothing.
type NaiveBayes struct {
	classes    []string
	classIdx   map[string]int
	wordCounts []map[string]int // per class
	totalWords []int            // per class
	docCounts  []int            // per class
	totalDocs  int
	vocab      map[string]bool
}

// NewNaiveBayes returns an untrained classifier.
func NewNaiveBayes() *NaiveBayes {
	return &NaiveBayes{classIdx: make(map[string]int), vocab: make(map[string]bool)}
}

// Train adds one labeled document (a bag of tokens).
func (nb *NaiveBayes) Train(class string, tokens []string) {
	idx, ok := nb.classIdx[class]
	if !ok {
		idx = len(nb.classes)
		nb.classIdx[class] = idx
		nb.classes = append(nb.classes, class)
		nb.wordCounts = append(nb.wordCounts, make(map[string]int))
		nb.totalWords = append(nb.totalWords, 0)
		nb.docCounts = append(nb.docCounts, 0)
	}
	nb.docCounts[idx]++
	nb.totalDocs++
	for _, tok := range tokens {
		nb.wordCounts[idx][tok]++
		nb.totalWords[idx]++
		nb.vocab[tok] = true
	}
}

// Trained reports whether any documents have been seen.
func (nb *NaiveBayes) Trained() bool { return nb.totalDocs > 0 }

// Scorer is a trained NaiveBayes frozen into a table: each class's log
// prior, and each vocabulary token's per-class log likelihood. It scores
// a document with one map lookup per token, and is safe for concurrent
// use.
type Scorer struct {
	classIdx map[string]int
	prior    []float64 // per class
	// terms holds one row of len(prior) per vocabulary token, at the
	// offset row names; unseen is the row of a token not in the
	// vocabulary.
	terms  []float64
	row    map[string]int
	unseen []float64
}

// Compile freezes the model as it is now; training it further leaves the
// Scorer unchanged. Every value is the expression the model's posterior
// has always been computed with, so a Scorer sums, per class, the same
// values in the same order.
func (nb *NaiveBayes) Compile() *Scorer {
	k := len(nb.classes)
	s := &Scorer{
		classIdx: make(map[string]int, k),
		prior:    make([]float64, k),
		terms:    make([]float64, 0, k*len(nb.vocab)),
		row:      make(map[string]int, len(nb.vocab)),
		unseen:   make([]float64, k),
	}
	v := float64(len(nb.vocab))
	denom := make([]float64, k)
	for i, class := range nb.classes {
		s.classIdx[class] = i
		s.prior[i] = math.Log(float64(nb.docCounts[i]) / float64(nb.totalDocs))
		denom[i] = float64(nb.totalWords[i]) + v
		s.unseen[i] = math.Log(1 / denom[i])
	}
	for tok := range nb.vocab {
		s.row[tok] = len(s.terms)
		for i := range nb.classes {
			c := float64(nb.wordCounts[i][tok])
			s.terms = append(s.terms, math.Log((c+1)/denom[i]))
		}
	}
	return s
}

// Posterior returns the normalized probability of class for the tokens,
// or 0 for a class the model was never trained on. It allocates nothing
// for a model of up to four classes.
func (s *Scorer) Posterior(tokens []string, class string) float64 {
	want, ok := s.classIdx[class]
	if !ok {
		return 0
	}
	var buf [4]float64
	lp := s.logPosteriors(tokens, buf[:0])
	// Log-sum-exp normalization.
	max := math.Inf(-1)
	for _, l := range lp {
		if l > max {
			max = l
		}
	}
	total := 0.0
	for _, l := range lp {
		total += math.Exp(l - max)
	}
	return math.Exp(lp[want]-max) / total
}

// logPosteriors appends each class's unnormalized log posterior to lp:
// its prior plus its term of every token, in token order.
func (s *Scorer) logPosteriors(tokens []string, lp []float64) []float64 {
	n := len(lp)
	lp = append(lp, s.prior...)
	sums := lp[n:]
	for _, tok := range tokens {
		terms := s.unseen
		if at, ok := s.row[tok]; ok {
			terms = s.terms[at : at+len(sums)]
		}
		for i, t := range terms {
			sums[i] += t
		}
	}
	return lp
}

// TopFeatures returns the n tokens with the highest log-odds for the
// class against all other classes pooled — the "key features
// corresponding to churn drivers" the paper extracts.
func (nb *NaiveBayes) TopFeatures(class string, n int) []string {
	idx, ok := nb.classIdx[class]
	if !ok {
		return nil
	}
	v := float64(len(nb.vocab))
	inDenom := float64(nb.totalWords[idx]) + v
	outTotal := 0
	for i := range nb.classes {
		if i != idx {
			outTotal += nb.totalWords[i]
		}
	}
	outDenom := float64(outTotal) + v
	type scored struct {
		tok   string
		score float64
	}
	var all []scored
	for tok := range nb.vocab {
		inC := float64(nb.wordCounts[idx][tok])
		outC := 0.0
		for i := range nb.classes {
			if i != idx {
				outC += float64(nb.wordCounts[i][tok])
			}
		}
		score := math.Log((inC+1)/inDenom) - math.Log((outC+1)/outDenom)
		all = append(all, scored{tok, score})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].tok < all[j].tok
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].tok
	}
	return out
}

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

// LogPosteriors returns the unnormalized log-posterior per class.
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

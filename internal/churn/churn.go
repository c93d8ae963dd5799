// Package churn implements the §VI use case: predicting subscriber churn
// from the Voice of Customer. A classifier is trained on the (cleaned,
// normalized) messages of known churners and non-churners, then applied
// to a held-out month of communications; the paper reports detecting
// 53.6% of churners from emails under heavy class imbalance (3% churner
// emails).
//
// The package also detects which churn drivers (competitor tariff,
// problem resolution, service issues, billing issues, low awareness) a
// message expresses, using the annotation engine — the "why" analysis
// that structured-only BI cannot provide.
package churn

import (
	"bivoc/internal/annotate"
	"bivoc/internal/classify"
	"bivoc/internal/textproc"
)

// Labels used by the underlying classifier.
const (
	LabelChurn = "churn"
	LabelStay  = "stay"
)

// Featurize turns normalized message text into classifier tokens:
// content-word unigrams plus adjacent-content-word bigrams (bigrams
// capture phrases like "too high" and "not solved" that single words
// miss). Tokens containing digits are dropped — phone numbers, amounts
// and receipt ids identify individual customers, and a churn model that
// memorizes identities reports inflated recall on any customer whose
// messages span the train/eval boundary.
func Featurize(text string) []string {
	words := textproc.ContentWords(text)
	kept := words[:0]
	for _, w := range words {
		if textproc.DigitCount(w) == 0 {
			kept = append(kept, w)
		}
	}
	out := make([]string, 0, 2*len(kept))
	out = append(out, kept...)
	for i := 0; i+1 < len(kept); i++ {
		out = append(out, kept[i]+"_"+kept[i+1])
	}
	return out
}

// Predictor is a churn classifier with an adjustable decision threshold
// for imbalanced data.
//
// Score compiles the model on its first call after a Train, so a
// Predictor is not safe for concurrent use until it has scored once.
type Predictor struct {
	nb     *classify.NaiveBayes
	scorer *classify.Scorer // nb compiled, or nil once Train has changed it
	// Threshold is the churn-posterior cut; with 3-8% positive rates the
	// operating point sits well below 0.5.
	Threshold float64
}

// NewPredictor returns an untrained predictor with the given threshold
// (0 < threshold < 1; defaults to 0.3).
func NewPredictor(threshold float64) *Predictor {
	if threshold <= 0 || threshold >= 1 {
		threshold = 0.3
	}
	return &Predictor{nb: classify.NewNaiveBayes(), Threshold: threshold}
}

// Train adds one labeled message (already cleaned/normalized).
func (p *Predictor) Train(text string, churner bool) {
	label := LabelStay
	if churner {
		label = LabelChurn
	}
	p.nb.Train(label, Featurize(text))
	p.scorer = nil
}

// Trained reports whether any messages were seen.
func (p *Predictor) Trained() bool { return p.nb.Trained() }

// Score returns the churn posterior for a message.
func (p *Predictor) Score(text string) float64 {
	if p.scorer == nil {
		p.scorer = p.nb.Compile()
	}
	return p.scorer.Posterior(Featurize(text), LabelChurn)
}

// Predict reports whether the message indicates a churner at the current
// threshold.
func (p *Predictor) Predict(text string) bool {
	return p.Score(text) >= p.Threshold
}

// TopChurnFeatures returns the strongest churn-indicating features —
// the discovered "key features corresponding to churn drivers".
func (p *Predictor) TopChurnFeatures(n int) []string {
	return p.nb.TopFeatures(LabelChurn, n)
}

// DriverDetector finds churn-driver mentions through the annotation
// engine's dictionary machinery.
type DriverDetector struct {
	engine *annotate.Engine
}

// NewDriverDetector builds a detector from driver seed phrases: every
// informative content word and adjacent pair of a seed phrase becomes a
// dictionary surface mapping to the driver category.
func NewDriverDetector(seeds map[string][]string) *DriverDetector {
	dict := annotate.NewDictionary()
	for driver, phrases := range seeds {
		for _, phrase := range phrases {
			words := textproc.ContentWords(phrase)
			for i := 0; i+1 < len(words); i++ {
				dict.Add(annotate.Entry{
					Surface:   words[i] + " " + words[i+1],
					PoS:       annotate.PoSNoun,
					Canonical: words[i] + " " + words[i+1],
					Category:  driver,
				})
			}
		}
	}
	return &DriverDetector{engine: annotate.NewEngine(dict)}
}

// Detect returns the distinct driver categories expressed in the text,
// sorted.
func (d *DriverDetector) Detect(text string) []string {
	// The dictionary holds content-word pairs, so the engine reads the
	// text's content words, adjacent as if the stopwords were not there.
	return annotate.Categories(d.engine.Annotate(nil, textproc.WordsOf(textproc.ContentWords(text))))
}

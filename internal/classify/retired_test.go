package classify

import (
	"strings"
	"testing"
)

// Nothing shipped reaches what this file declares (the root package's
// TestEveryInternalFunctionIsReachable). It left classify.go
// in PR 24 and stays, as test code only, because the tests below pin it
// and a PR may retire only a few tests of the floor. It is a reference
// for nothing: delete each declaration with its tests.

// Classes returns the known class labels in training order.
func (nb *NaiveBayes) Classes() []string {
	out := make([]string, len(nb.classes))
	copy(out, nb.classes)
	return out
}

// PredictWithThreshold returns positiveClass when its posterior exceeds
// threshold, else the fallback class. This is the imbalance lever of the
// churn use case: with a 3% minority class, maximizing accuracy would
// never flag a churner; lowering the threshold trades precision for the
// churner recall the business cares about.
func (nb *NaiveBayes) PredictWithThreshold(tokens []string, positiveClass string, threshold float64, fallback string) string {
	if nb.Compile().Posterior(tokens, positiveClass) >= threshold {
		return positiveClass
	}
	return fallback
}

// Evaluation holds binary-classification quality measures for a positive
// class.
type Evaluation struct {
	TP, FP, TN, FN int
}

// Add records one prediction.
func (e *Evaluation) Add(predicted, actual, positive string) {
	switch {
	case actual == positive && predicted == positive:
		e.TP++
	case actual == positive:
		e.FN++
	case predicted == positive:
		e.FP++
	default:
		e.TN++
	}
}

// Recall returns TP/(TP+FN) — the paper's churn metric ("we were able to
// detect 53.6% percent of churners correctly").
func (e *Evaluation) Recall() float64 {
	if e.TP+e.FN == 0 {
		return 0
	}
	return float64(e.TP) / float64(e.TP+e.FN)
}

// Precision returns TP/(TP+FP).
func (e *Evaluation) Precision() float64 {
	if e.TP+e.FP == 0 {
		return 0
	}
	return float64(e.TP) / float64(e.TP+e.FP)
}

// Accuracy returns the overall fraction correct.
func (e *Evaluation) Accuracy() float64 {
	n := e.TP + e.FP + e.TN + e.FN
	if n == 0 {
		return 0
	}
	return float64(e.TP+e.TN) / float64(n)
}

// F1 returns the harmonic mean of precision and recall.
func (e *Evaluation) F1() float64 {
	p, r := e.Precision(), e.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

func TestPredictWithThreshold(t *testing.T) {
	nb := trainToy(t)
	toks := strings.Fields("money now")
	p := nb.Compile().Posterior(toks, "spam")
	// With threshold above the posterior → fallback; below → positive.
	hi := nb.PredictWithThreshold(toks, "spam", p+0.01, "ham")
	lo := nb.PredictWithThreshold(toks, "spam", p-0.01, "ham")
	if hi != "ham" || lo != "spam" {
		t.Errorf("threshold behaviour wrong: hi=%q lo=%q", hi, lo)
	}
}

func TestClassesCopy(t *testing.T) {
	nb := trainToy(t)
	c := nb.Classes()
	c[0] = "mutated"
	if nb.Classes()[0] == "mutated" {
		t.Error("Classes leaks internal slice")
	}
}

func TestEvaluationCounters(t *testing.T) {
	var e Evaluation
	e.Add("churn", "churn", "churn") // TP
	e.Add("churn", "stay", "churn")  // FP
	e.Add("stay", "churn", "churn")  // FN
	e.Add("stay", "stay", "churn")   // TN
	if e.TP != 1 || e.FP != 1 || e.FN != 1 || e.TN != 1 {
		t.Fatalf("counts wrong: %+v", e)
	}
	if e.Recall() != 0.5 || e.Precision() != 0.5 || e.Accuracy() != 0.5 {
		t.Errorf("metrics wrong: r=%v p=%v a=%v", e.Recall(), e.Precision(), e.Accuracy())
	}
	if e.F1() != 0.5 {
		t.Errorf("f1 = %v", e.F1())
	}
}

func TestEvaluationEmpty(t *testing.T) {
	var e Evaluation
	if e.Recall() != 0 || e.Precision() != 0 || e.Accuracy() != 0 || e.F1() != 0 {
		t.Error("empty evaluation should be all zeros")
	}
}

func TestImbalancedRecallImprovesWithThreshold(t *testing.T) {
	// Build an imbalanced problem: 5% positive.
	nb := NewNaiveBayes()
	posWords := strings.Fields("leaving switch provider porting cancel disconnect")
	negWords := strings.Fields("balance plan recharge data pack billing query")
	for i := 0; i < 10; i++ {
		nb.Train("churn", []string{posWords[i%len(posWords)], negWords[i%len(negWords)]})
	}
	for i := 0; i < 190; i++ {
		nb.Train("stay", []string{negWords[i%len(negWords)], negWords[(i+1)%len(negWords)]})
	}
	// A weak churn signal document.
	doc := []string{"cancel", "billing"}
	var strict, lenient Evaluation
	strict.Add(nb.PredictWithThreshold(doc, "churn", 0.9, "stay"), "churn", "churn")
	lenient.Add(nb.PredictWithThreshold(doc, "churn", 0.1, "stay"), "churn", "churn")
	if lenient.Recall() < strict.Recall() {
		t.Error("lenient threshold should not lower recall")
	}
}

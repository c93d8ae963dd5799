package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"bivoc/internal/churn"
	"bivoc/internal/clean"
	"bivoc/internal/linker"
	"bivoc/internal/pipeline"
	"bivoc/internal/sentiment"
	"bivoc/internal/synth"
	"bivoc/internal/warehouse"
)

// ChurnExperimentConfig drives the §VI use case end to end: clean the
// email/SMS corpora, link messages to subscriber records (attaching the
// churn label from the structured database), train a classifier on the
// earlier months, and measure churner detection on the final month.
type ChurnExperimentConfig struct {
	World synth.TelecomConfig
	// MinLinkScore is the acceptance threshold on the linker's aggregate
	// score: a best match below it counts as unlinkable. Identity
	// evidence from a full name is worth ≈1.0, so 0.9 demands a nearly
	// complete name or name-plus-phone combination — which is what keeps
	// non-customer mail unlinkable, as in the paper's 18%.
	MinLinkScore float64
	// MinLinkScoreSMS is the acceptance threshold for SMS, which rarely
	// carry a name — a full sender-number match (score ≈0.5 under
	// uniform name/phone weights) must be enough to link.
	MinLinkScoreSMS float64
	// Channel restricts the experiment ("email", "sms", or "" for both).
	Channel string
	// NormalizeSMS toggles the lingo-normalization step (ablation).
	NormalizeSMS bool
	// Workers is the per-stage parallelism of the clean→link pipeline
	// (default: GOMAXPROCS; 1 recovers the sequential path). Results are
	// identical at any worker count: stage functions are pure per message
	// and accounting runs over the corpus in its original order.
	Workers int
	// FaultTolerance is the policy the clean and link stages run under:
	// retry/backoff, per-attempt timeout, injected faults (keyed by
	// stage, message ID and attempt) and the dead-letter budget. The
	// zero value keeps fail-fast. Messages that exhaust their retries
	// are counted in ChurnExperimentResult.DeadLettered instead of
	// crashing the experiment.
	FaultTolerance pipeline.FaultTolerance
}

// churnThreshold is the churn-posterior decision threshold.
const churnThreshold = 0.3

// DefaultChurnExperimentConfig returns the paper-shaped configuration.
func DefaultChurnExperimentConfig() ChurnExperimentConfig {
	return ChurnExperimentConfig{
		World:           synth.DefaultTelecomConfig(),
		MinLinkScore:    0.85,
		MinLinkScoreSMS: 0.45,
		Channel:         "email",
		NormalizeSMS:    true,
	}
}

// ChurnExperimentResult reports the paper's §VI quantities.
type ChurnExperimentResult struct {
	Messages int
	// Discarded by the cleaning gate.
	Spam, NonEnglish, Empty int
	// DeadLettered counts messages dropped by the fault-tolerance layer
	// after exhausting their retries (0 unless
	// FaultTolerance.MaxDeadLetters allowed it). They are excluded from
	// every downstream rate, so Spam + NonEnglish + Empty + Linked +
	// Unlinkable + DeadLettered == Messages.
	DeadLettered int
	// Linking outcomes over gated-in messages.
	Linked, Unlinkable int
	// UnlinkableRate is Unlinkable / (Linked + Unlinkable) — the paper's
	// "Around 18% of emails could not be linked".
	UnlinkableRate float64
	// LinkCorrect is the fraction of linked messages attached to the true
	// author (measurable only in simulation).
	LinkCorrect float64
	// Customer-level detection on the evaluation month: the paper's
	// "53.6% of churners detected correctly".
	ChurnersInEval  int
	ChurnersFlagged int
	ChurnerRecall   float64
	// Message-level confusion counters on the evaluation month.
	TP, FP, TN, FN int
	// TopFeatures are the learned churn indicators.
	TopFeatures []string
	// SentimentChurners / SentimentStayers are mean polarity scores of
	// linked messages per group — §III's claim that VoC "indicate[s] the
	// level of (dis)satisfaction of the customer or his churn propensity"
	// made measurable.
	SentimentChurners float64
	SentimentStayers  float64
}

// linkedMessage is one message that survived cleaning and linking.
type linkedMessage struct {
	msg     *synth.Message // in the corpus; not copied
	custIdx int            // index into world.Customers (from LINKING, not truth)
	text    string
}

// RunChurnExperiment executes the full §VI pipeline.
func RunChurnExperiment(cfg ChurnExperimentConfig) (*ChurnExperimentResult, error) {
	return RunChurnExperimentContext(context.Background(), cfg)
}

// msgJob carries one message through the streaming clean → link stages.
// The idx keys it back to corpus order so the downstream accounting and
// training are byte-identical at any worker count.
type msgJob struct {
	idx     int
	verdict clean.Verdict
	// custIdx is the linked customer index, or -1 when unlinkable.
	// Meaningful only for VerdictKeep.
	custIdx int
	// text is the de-signatured cleaned text for the classifier.
	text string
	// delivered is set by the sink: a job that never reached it was
	// dead-lettered.
	delivered bool
}

// RunChurnExperimentContext is RunChurnExperiment with cancellation. The
// clean and link stages run as concurrent worker pools; per-message work
// is pure, and all stateful accounting happens afterwards in corpus
// order, so cfg.Workers never changes the result.
func RunChurnExperimentContext(ctx context.Context, cfg ChurnExperimentConfig) (*ChurnExperimentResult, error) {
	return runChurnExperiment(ctx, cfg, newSubscriberLinker)
}

// runChurnExperiment is the experiment over whatever engine newLinker
// builds on the world's warehouse: newSubscriberLinker from the exported
// entry points, its naive view from the equivalence test.
func runChurnExperiment(ctx context.Context, cfg ChurnExperimentConfig, newLinker func(*warehouse.DB) (*linker.Engine, error)) (*ChurnExperimentResult, error) {
	world, err := synth.NewTelecomWorld(cfg.World)
	if err != nil {
		return nil, err
	}
	cleaner := clean.NewCleaner()
	engine, err := newLinker(world.DB)
	if err != nil {
		return nil, err
	}
	annotators := NewCarRentalAnnotators() // same name/place inventories

	var corpus []synth.Message
	if cfg.Channel == "" || cfg.Channel == "email" {
		corpus = append(corpus, world.Emails...)
	}
	if cfg.Channel == "" || cfg.Channel == "sms" {
		corpus = append(corpus, world.SMS...)
	}

	res := &ChurnExperimentResult{Messages: len(corpus)}
	idByKey := map[string]int{}
	for i, c := range world.Customers {
		idByKey[c.ID] = i
	}
	subs := world.DB.MustTable("subscribers")

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cleanStage := func(_ context.Context, j msgJob) (msgJob, error) {
		m := corpus[j.idx]
		var cm clean.CleanedMessage
		if m.Channel == "email" {
			cm = cleaner.ProcessEmail(m.Raw)
		} else if cfg.NormalizeSMS {
			cm = cleaner.ProcessSMS(m.Raw)
		} else {
			// Ablation: gate but skip normalization.
			v := cleaner.Gate(m.Raw)
			cm = clean.CleanedMessage{Verdict: v}
			if v == clean.VerdictKeep {
				cm.Text = strings.ToLower(m.Raw)
			}
		}
		j.verdict = cm.Verdict
		j.text = cm.Text
		return j, nil
	}
	linkStage := func(_ context.Context, j msgJob) (msgJob, error) {
		j.custIdx = -1
		if j.verdict != clean.VerdictKeep {
			return j, nil
		}
		m := corpus[j.idx]
		tokens := annotators.Extract(j.text)
		minScore := cfg.MinLinkScore
		if m.Channel == "sms" {
			minScore = cfg.MinLinkScoreSMS
		}
		matches := engine.Link(tokens, 1)
		if len(matches) == 0 || matches[0].Score < minScore {
			return j, nil
		}
		j.custIdx = idByKey[subs.GetString(matches[0].Row, "id")]
		// Classify on the de-signatured text: the signature identified the
		// author for linking, but the classifier must learn churn
		// language, not author identities.
		j.text = clean.StripSignature(j.text)
		return j, nil
	}

	stages := []pipeline.Stage[msgJob]{
		{Name: "clean", Workers: workers, Fn: cleanStage},
		{Name: "link", Workers: workers, Fn: linkStage},
	}
	p := pipeline.New[msgJob]("churn", stages...).
		WithKey(func(j msgJob) string { return corpus[j.idx].ID }).
		WithSeed(cfg.World.Seed).
		WithFaultTolerance(cfg.FaultTolerance)
	jobs := make([]msgJob, len(corpus))
	err = p.Run(ctx,
		pipeline.IndexedSource(len(corpus), func(i int) msgJob { return msgJob{idx: i} }),
		func(j msgJob) error { j.delivered = true; jobs[j.idx] = j; return nil })
	if err != nil {
		return nil, err
	}

	// Accounting pass in corpus order — identical to the sequential run.
	var linked []linkedMessage
	linkRight := 0
	for i, j := range jobs {
		m := corpus[i]
		if !j.delivered {
			// Dead-lettered: the slot is a zero value (which would read
			// as VerdictKeep), accounted apart from the cleaning gate.
			res.DeadLettered++
			continue
		}
		switch j.verdict {
		case clean.VerdictSpam:
			res.Spam++
			continue
		case clean.VerdictNonEnglish:
			res.NonEnglish++
			continue
		case clean.VerdictEmpty:
			res.Empty++
			continue
		}
		if j.custIdx < 0 {
			res.Unlinkable++
			continue
		}
		res.Linked++
		if m.CustIdx == j.custIdx {
			linkRight++
		}
		linked = append(linked, linkedMessage{msg: &corpus[i], custIdx: j.custIdx, text: j.text})
	}
	if res.Linked+res.Unlinkable > 0 {
		res.UnlinkableRate = float64(res.Unlinkable) / float64(res.Linked+res.Unlinkable)
	}
	if res.Linked > 0 {
		res.LinkCorrect = float64(linkRight) / float64(res.Linked)
	}

	// Train on months before the last; evaluate on the last month. The
	// label comes from the LINKED subscriber's churn status — exactly the
	// paper's integration step.
	evalMonth := synth.TelecomMonths - 1
	pred := churn.NewPredictor(churnThreshold)
	var evalMsgs []linkedMessage
	for _, lmsg := range linked {
		labelChurn := world.Customers[lmsg.custIdx].Churned
		if lmsg.msg.Month < evalMonth {
			pred.Train(lmsg.text, labelChurn)
		} else {
			evalMsgs = append(evalMsgs, lmsg)
		}
	}
	if !pred.Trained() {
		return nil, fmt.Errorf("core: churn training set empty")
	}

	// Message-level confusion, against the hidden truth.
	flaggedCustomers := map[int]bool{}
	for _, lmsg := range evalMsgs {
		predicted := pred.Predict(lmsg.text)
		actual := lmsg.msg.FromChurner
		switch {
		case predicted && actual:
			res.TP++
		case predicted && !actual:
			res.FP++
		case !predicted && actual:
			res.FN++
		default:
			res.TN++
		}
		if predicted {
			flaggedCustomers[lmsg.custIdx] = true
		}
	}
	// Customer-level churner recall: of the true churners who wrote in
	// the evaluation month, how many were flagged?
	churnersSeen := map[int]bool{}
	for _, lmsg := range evalMsgs {
		if lmsg.msg.FromChurner && lmsg.msg.CustIdx >= 0 {
			churnersSeen[lmsg.msg.CustIdx] = true
		}
	}
	res.ChurnersInEval = len(churnersSeen)
	for idx := range churnersSeen {
		if flaggedCustomers[idx] {
			res.ChurnersFlagged++
		}
	}
	if res.ChurnersInEval > 0 {
		res.ChurnerRecall = float64(res.ChurnersFlagged) / float64(res.ChurnersInEval)
	}
	res.TopFeatures = pred.TopChurnFeatures(15)

	// Satisfaction split across all linked messages (hidden-truth
	// grouping, for the reproduction record).
	var churnTexts, stayTexts []string
	for _, lmsg := range linked {
		if lmsg.msg.FromChurner {
			churnTexts = append(churnTexts, lmsg.text)
		} else {
			stayTexts = append(stayTexts, lmsg.text)
		}
	}
	res.SentimentChurners = sentiment.ScoreCorpus(churnTexts)
	res.SentimentStayers = sentiment.ScoreCorpus(stayTexts)
	return res, nil
}

// newSubscriberLinker builds the linking engine over the subscribers
// table.
func newSubscriberLinker(db *warehouse.DB) (*linker.Engine, error) {
	return linker.NewEngine(db, linker.Config{Targets: map[linker.TokenType][]linker.Attribute{
		linker.TokName: {
			{Table: "subscribers", Column: "name"},
		},
		linker.TokDigits: {
			{Table: "subscribers", Column: "phone"},
		},
	}})
}

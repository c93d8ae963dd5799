package core

import (
	"context"

	"bivoc/internal/asr"
	"bivoc/internal/mining"
	"bivoc/internal/pipeline"
	"bivoc/internal/synth"
)

// CallAnalysisConfig drives the §V pipeline end to end.
type CallAnalysisConfig struct {
	World synth.CarRentalConfig
	// Channel is the acoustic operating point. UseASR=false skips the
	// recognizer and analyzes reference transcripts (fast mode for
	// analysis-layer work; the paper's pipeline always transcribes).
	Channel asr.ChannelConfig
	Decoder asr.DecoderConfig
	UseASR  bool
	// UseNotes analyzes the agent wrap-up notes instead of transcripts —
	// the Figure 1 "contact center notes" channel, which covers every
	// call (recordings cover ~25%, §V.A) but in heavy shorthand. Takes
	// precedence over UseASR.
	UseNotes bool
	// Workers is the parallelism of the streaming pipeline's transcribe
	// stage, where the ASR decoder runs (default: GOMAXPROCS; 1 recovers
	// the sequential path); link and annotate run single, being cheaper
	// than the sink. §III's third challenge is volume — "one of the help
	// desk accounts ... generated about 150GB of recordings every day" —
	// and calls process independently because each carries its own noise
	// stream. Results are bit-identical at any worker count; realized
	// speedup depends on cores and GC headroom (decoding is
	// allocation-heavy).
	Workers int
	// Confidence for association interval estimates.
	Confidence float64
	// Monitor, when set, is invoked on its own goroutine as the streaming
	// run starts, with live access to stage stats and the growing mining
	// index. It should return promptly once Monitor.Done() closes.
	Monitor func(*StreamMonitor)
	// FaultTolerance is the policy every pipeline stage runs under:
	// retry/backoff, per-attempt timeout, injected faults (keyed by
	// stage, call ID and attempt) and the dead-letter budget. The zero
	// value keeps fail-fast semantics. Retried stages replay exactly:
	// every call's randomness comes from its own ID-keyed substream, so
	// a retry cannot shift any other call's draw and reports stay
	// byte-identical to a fault-free run.
	FaultTolerance pipeline.FaultTolerance
}

// DefaultCallAnalysisConfig returns the standard configuration with ASR
// at the call-centre operating point.
func DefaultCallAnalysisConfig() CallAnalysisConfig {
	return CallAnalysisConfig{
		World:      synth.DefaultCarRentalConfig(),
		Channel:    asr.CallCenterChannel,
		Decoder:    asr.DefaultDecoderConfig(),
		UseASR:     true,
		Confidence: mining.DefaultConfidence,
	}
}

// CallAnalysis is the assembled §V pipeline state.
type CallAnalysis struct {
	Config     CallAnalysisConfig
	World      *synth.CarRentalWorld
	Recognizer *asr.Recognizer
	Index      *mining.Index
	// Transcripts[i] is the analyzed transcript of World.Calls[i] (ASR
	// output or reference, per config); nil for dead-lettered calls.
	Transcripts [][]string
	// DeadLetters records the calls that exhausted their retries and
	// were dropped from the flow (empty unless
	// FaultTolerance.MaxDeadLetters allowed it). The sealed Index holds
	// exactly len(World.Calls) - len(DeadLetters) documents.
	DeadLetters []pipeline.DeadLetter
}

// RunCallAnalysis generates the world and calls, transcribes them,
// annotates the transcripts and indexes each call with its linked
// structured fields (outcome, agent, trained flag) — Figure 3's flow for
// the car-rental engagement, run on the staged streaming pipeline.
func RunCallAnalysis(cfg CallAnalysisConfig) (*CallAnalysis, error) {
	return RunCallAnalysisContext(context.Background(), cfg)
}

// RunCallAnalysisContext is RunCallAnalysis with cancellation: cancel
// ctx and the pipeline aborts promptly, returning the context error.
func RunCallAnalysisContext(ctx context.Context, cfg CallAnalysisConfig) (*CallAnalysis, error) {
	ca, err := newCallAnalysis(cfg)
	if err != nil {
		return nil, err
	}
	if err := ca.analyzeStreaming(ctx); err != nil {
		return nil, err
	}
	return ca, nil
}

// newCallAnalysis builds the call pipeline's inputs: the world with its
// calls generated and, when transcripts are to be recognized, the
// recognizer.
func newCallAnalysis(cfg CallAnalysisConfig) (*CallAnalysis, error) {
	world, err := synth.NewCarRentalWorld(cfg.World)
	if err != nil {
		return nil, err
	}
	world.GenerateCalls(0, cfg.World.Days)
	ca := &CallAnalysis{Config: cfg, World: world}
	if cfg.UseASR && !cfg.UseNotes {
		rec, err := synth.BuildRecognizer(cfg.Channel, cfg.Decoder)
		if err != nil {
			return nil, err
		}
		ca.Recognizer = rec
	}
	return ca, nil
}

// IntentOutcomeTable reproduces Table III: customer intention at start
// of call versus call result, as within-row percentages.
func (ca *CallAnalysis) IntentOutcomeTable() *mining.AssocTable {
	return ca.Index.Associate(
		[]mining.Dim{
			mining.ConceptDim(CatIntent, IntentStrongConcept),
			mining.ConceptDim(CatIntent, IntentWeakConcept),
		},
		[]mining.Dim{
			mining.FieldDim("outcome", synth.OutcomeReservation),
			mining.FieldDim("outcome", synth.OutcomeUnbooked),
		},
		ca.Config.Confidence,
	)
}

// AgentUtteranceTable reproduces Table IV: agent utterance (value
// selling / discount) versus call result.
func (ca *CallAnalysis) AgentUtteranceTable() *mining.AssocTable {
	return ca.Index.Associate(
		[]mining.Dim{
			mining.CategoryDim(CatValue),
			mining.CategoryDim(CatDiscount),
		},
		[]mining.Dim{
			mining.FieldDim("outcome", synth.OutcomeReservation),
			mining.FieldDim("outcome", synth.OutcomeUnbooked),
		},
		ca.Config.Confidence,
	)
}

// LocationVehicleTable reproduces Table II: two-dimensional association
// between rental location and vehicle type mentions.
func (ca *CallAnalysis) LocationVehicleTable() *mining.AssocTable {
	var rows []mining.Dim
	for _, city := range synth.Cities() {
		rows = append(rows, mining.ConceptDim(CatPlace, city))
	}
	var cols []mining.Dim
	for _, vt := range synth.VehicleTypes() {
		cols = append(cols, mining.ConceptDim(CatVehicle, vt))
	}
	return ca.Index.Associate(rows, cols, ca.Config.Confidence)
}

// WeakStartConversionDrivers runs the §V.B relevancy analysis: among
// weak-start calls that nevertheless converted, which agent concepts are
// over-represented? (The paper's finding: discounts — "by analyzing the
// Weak start calls that were successful, we found that in these calls
// agents were offering more discounts".)
func (ca *CallAnalysis) WeakStartConversionDrivers() []mining.Relevance {
	featured := mining.AndDim(
		mining.ConceptDim(CatIntent, IntentWeakConcept),
		mining.FieldDim("outcome", synth.OutcomeReservation),
	)
	return ca.Index.RelativeFrequency(CatDiscount, featured)
}

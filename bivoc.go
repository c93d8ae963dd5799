// Package bivoc is the public API of the BIVoC system — Business
// Intelligence from Voice of Customer (Subramaniam, Faruquie, Ikbal,
// Godbole, Mohania; ICDE 2009) — reproduced from scratch in pure Go.
//
// BIVoC combines unstructured Voice-of-Customer data (noisy call
// transcripts, emails, SMS) with structured warehouse data to derive
// business insights neither side yields alone. The pipeline stages map
// one-to-one onto the paper's Figure 3:
//
//	ASR / cleaning  →  data linking  →  annotation  →  indexing & reporting
//
// This package re-exports the stable surface of the system. The
// submodules (internal/...) hold the implementations:
//
//   - ASR substrate: pronunciation lexicon, articulatory noisy channel,
//     token-passing Viterbi beam decoder, interpolated N-gram LM,
//     per-entity-class WER scoring, constrained second-pass decoding.
//   - Cleaning: spam gate, language filter, email segmentation, SMS
//     lingo normalization.
//   - Linking: annotator extraction, Eqn-2/Eqn-3 fuzzy entity scoring,
//     Fagin/Threshold-Algorithm top-k merge, unsupervised EM attribute
//     weights.
//   - Annotation: domain dictionary with canonical forms and semantic
//     categories, PoS tagging, phrase patterns, polarity rules.
//   - Mining: concept index, relative-frequency relevancy, 2-D
//     association analysis with interval-estimated indexes, trends,
//     drill-down.
//   - Use cases: agent-productivity improvement (§V) and churn
//     prediction (§VI), with synthetic worlds standing in for the
//     paper's proprietary engagement data.
//
// # Quickstart
//
//	cfg := bivoc.DefaultCallAnalysisConfig()
//	cfg.UseASR = false // analysis-only mode; true runs the full recognizer
//	ca, err := bivoc.RunCallAnalysis(cfg)
//	if err != nil { ... }
//	fmt.Print(ca.IntentOutcomeTable().Render()) // the paper's Table III
//
// See examples/ for runnable programs and EXPERIMENTS.md for the
// paper-versus-measured record of every table and figure.
package bivoc

import (
	"bivoc/internal/asr"
	"bivoc/internal/churn"
	"bivoc/internal/core"
	"bivoc/internal/fed"
	"bivoc/internal/linker"
	"bivoc/internal/mining"
	"bivoc/internal/pipeline"
	"bivoc/internal/server"
	"bivoc/internal/synth"
	"bivoc/internal/warehouse"
)

// Version is the library version.
const Version = "1.0.0"

// --- Car-rental (§V) pipeline ---

// CallAnalysisConfig configures the §V car-rental pipeline.
type CallAnalysisConfig = core.CallAnalysisConfig

// CallAnalysis is the assembled pipeline state with its mining index.
type CallAnalysis = core.CallAnalysis

// DefaultCallAnalysisConfig returns the standard configuration (full ASR
// at the call-centre channel operating point).
func DefaultCallAnalysisConfig() CallAnalysisConfig {
	return core.DefaultCallAnalysisConfig()
}

// RunCallAnalysis executes generate → transcribe → link → annotate →
// index on the staged streaming pipeline (cfg.Workers per stage;
// Workers=1 recovers the sequential path).
func RunCallAnalysis(cfg CallAnalysisConfig) (*CallAnalysis, error) {
	return core.RunCallAnalysis(cfg)
}

// --- Streaming pipeline surface ---

// StreamMonitor is the live view handed to CallAnalysisConfig.Monitor
// while a streaming run is in flight: per-stage counters plus the
// query-while-indexing mining index.
type StreamMonitor = core.StreamMonitor

// StreamIndex is the incremental, concurrency-safe path into the mining
// index: Add documents from pipeline workers while association tables and
// relevancy reports are queried concurrently on the sealed view of the
// documents added so far that Snapshot hands out; Seal indexes them once
// into a deterministic batch Index.
type StreamIndex = mining.StreamIndex

// NewStreamIndex returns an empty streaming mining index.
func NewStreamIndex() *StreamIndex { return mining.NewStreamIndex() }

// --- Query serving (bivocd) ---

// ServeConfig configures the query daemon: a call-analysis ingest
// pipeline continuously publishing hot-swappable index snapshots behind
// an HTTP JSON API (/v1/count, /v1/associate, /v1/relfreq,
// /v1/drilldown, /v1/trend, /v1/concepts, /healthz, /statsz).
type ServeConfig = core.ServeConfig

// QueryServer is the serving-tier server: hot-swappable snapshots, a
// per-snapshot result cache, lock-free reads and graceful shutdown.
type QueryServer = server.Server

// DefaultServeConfig serves reference transcripts on localhost:8080
// with a one-second snapshot cadence.
func DefaultServeConfig() ServeConfig { return core.DefaultServeConfig() }

// NewQueryServer builds an unstarted query server from cfg; pair
// Start/Shutdown, or use its Run for the blocking daemon loop.
func NewQueryServer(cfg ServeConfig) (*QueryServer, error) { return core.NewServeServer(cfg) }

// --- Federation (bivocfed) ---

// FedConfig configures the scatter-gather federation coordinator: the
// shard base URLs (in shard-index order), per-shard timeout,
// fan-out bound and default association confidence.
type FedConfig = fed.Config

// FedCoordinator serves the same /v1 API as a single bivocd by
// scattering each query to every shard and merging the integer
// marginals before any float math — healthy responses are byte-identical
// to a single daemon over the union of the shards' documents.
type FedCoordinator = fed.Coordinator

// NewFedCoordinator builds an unstarted federation coordinator; pair
// Start/Shutdown, or use its Run for the blocking daemon loop.
func NewFedCoordinator(cfg FedConfig) (*FedCoordinator, error) { return fed.NewCoordinator(cfg) }

// --- Fault tolerance ---

// FaultTolerance is the streaming pipeline's one fault policy — retry
// policy, per-attempt timeout, fault injection and dead-letter budget —
// threaded into a run via CallAnalysisConfig.FaultTolerance or
// ChurnExperimentConfig.FaultTolerance. The zero value keeps fail-fast
// semantics.
type FaultTolerance = pipeline.FaultTolerance

// RetryPolicy controls re-execution of transient stage failures:
// max attempts, capped exponential backoff, deterministic jitter, and
// the transient-error classifier.
type RetryPolicy = pipeline.RetryPolicy

// DeadLetter records one item that exhausted its retries and was
// dropped from the flow instead of aborting the run.
type DeadLetter = pipeline.DeadLetter

// FaultFn injects failures into pipeline stage attempts — the
// chaos-testing hook a run takes as FaultTolerance.Inject.
type FaultFn = pipeline.FaultFn

// ErrTransient marks an error as retryable under the default transient
// classifier.
var ErrTransient = pipeline.ErrTransient

// Transient wraps err so the default retry classifier treats it as
// retryable.
func Transient(err error) error { return pipeline.Transient(err) }

// --- Agent-training experiment (§V.C) ---

// TrainingConfig configures the agent-training A/B experiment.
type TrainingConfig = core.TrainingConfig

// TrainingResult is the experiment outcome, including the Welch t-test.
type TrainingResult = core.TrainingResult

// DefaultTrainingConfig returns the paper-shaped configuration (90
// agents, 20 trained).
func DefaultTrainingConfig() TrainingConfig { return core.DefaultTrainingConfig() }

// RunTrainingExperiment runs the before/training/after windows and
// compares trained versus control agents.
func RunTrainingExperiment(cfg TrainingConfig) (*TrainingResult, error) {
	return core.RunTrainingExperiment(cfg)
}

// --- ASR evaluation (Table I, §IV.A.1) ---

// ASRExperimentConfig configures the Table I WER measurement.
type ASRExperimentConfig = core.ASRExperimentConfig

// ASRResult holds per-entity-class word error rates.
type ASRResult = core.ASRResult

// DefaultASRExperimentConfig returns the Table I configuration.
func DefaultASRExperimentConfig() ASRExperimentConfig {
	return core.DefaultASRExperimentConfig()
}

// RunASRExperiment measures WER for entire speech, names and numbers.
func RunASRExperiment(cfg ASRExperimentConfig) (*ASRResult, error) {
	return core.RunASRExperiment(cfg)
}

// SecondPassConfig configures the constrained second-pass experiment.
type SecondPassConfig = core.SecondPassConfig

// SecondPassResult reports first- versus second-pass name accuracy.
type SecondPassResult = core.SecondPassResult

// DefaultSecondPassConfig returns the §IV.A.1 improvement configuration.
func DefaultSecondPassConfig() SecondPassConfig { return core.DefaultSecondPassConfig() }

// RunSecondPassExperiment measures the name-accuracy gain from linking
// the first pass to the database and re-decoding name slots against the
// top-N candidate identities.
func RunSecondPassExperiment(cfg SecondPassConfig) (*SecondPassResult, error) {
	return core.RunSecondPassExperiment(cfg)
}

// --- Churn prediction (§VI) ---

// ChurnExperimentConfig configures the churn use case.
type ChurnExperimentConfig = core.ChurnExperimentConfig

// ChurnExperimentResult reports cleaning, linking and detection metrics.
type ChurnExperimentResult = core.ChurnExperimentResult

// DefaultChurnExperimentConfig returns the paper-shaped configuration.
func DefaultChurnExperimentConfig() ChurnExperimentConfig {
	return core.DefaultChurnExperimentConfig()
}

// RunChurnExperiment executes clean → link → train → detect, with the
// clean and link stages on the streaming pipeline (cfg.Workers each).
func RunChurnExperiment(cfg ChurnExperimentConfig) (*ChurnExperimentResult, error) {
	return core.RunChurnExperiment(cfg)
}

// --- Building blocks re-exported for custom pipelines ---

// CallCenterChannel is the ASR substrate's call-centre operating point.
var CallCenterChannel = asr.CallCenterChannel

// ChannelConfig parameterizes the acoustic noisy channel.
type ChannelConfig = asr.ChannelConfig

// DecoderConfig tunes the Viterbi beam decoder.
type DecoderConfig = asr.DecoderConfig

// DefaultDecoderConfig returns the standard first-pass decoder settings.
func DefaultDecoderConfig() DecoderConfig { return asr.DefaultDecoderConfig() }

// Recognizer is the full ASR pipeline (lexicon + channel + LM + decoder).
type Recognizer = asr.Recognizer

// NewCarRentalRecognizer assembles the car-rental domain recognizer.
func NewCarRentalRecognizer(channel ChannelConfig, decoder DecoderConfig) (*Recognizer, error) {
	return synth.BuildRecognizer(channel, decoder)
}

// Spotter detects keywords directly in phone streams — the word-spotting
// baseline (§II) that commercial monitoring tools use for indexing.
type Spotter = asr.Spotter

// NewSpotter returns a keyword spotter over a lexicon's pronunciations.
func NewSpotter(lex *asr.Lexicon) *Spotter { return asr.NewSpotter(lex) }

// MiningDocument is one indexed VoC item: extracted concepts, linked
// structured fields, and a time bucket.
type MiningDocument = mining.Document

// AssocTable is a two-dimensional association analysis result.
type AssocTable = mining.AssocTable

// Dim identifies one analysis dimension (concept or structured field).
type Dim = mining.Dim

// ConceptDim returns a concept dimension.
func ConceptDim(category, canonical string) Dim { return mining.ConceptDim(category, canonical) }

// CategoryDim returns a dimension matching any concept of a category.
func CategoryDim(category string) Dim { return mining.CategoryDim(category) }

// FieldDim returns a structured-field dimension.
func FieldDim(field, value string) Dim { return mining.FieldDim(field, value) }

// CarRentalConfig sizes the synthetic car-rental world.
type CarRentalConfig = synth.CarRentalConfig

// DefaultCarRentalConfig returns the paper-scale car-rental world.
func DefaultCarRentalConfig() CarRentalConfig { return synth.DefaultCarRentalConfig() }

// CarRentalWorld is the generated car-rental engagement: agents,
// customers, warehouse tables and calls.
type CarRentalWorld = synth.CarRentalWorld

// NewCarRentalWorld generates a car-rental world.
func NewCarRentalWorld(cfg CarRentalConfig) (*CarRentalWorld, error) {
	return synth.NewCarRentalWorld(cfg)
}

// TelecomConfig sizes the synthetic telecom world.
type TelecomConfig = synth.TelecomConfig

// DefaultTelecomConfig returns the laptop-scale telecom world with the
// paper's proportions.
func DefaultTelecomConfig() TelecomConfig { return synth.DefaultTelecomConfig() }

// TelecomWorld is the generated telecom engagement.
type TelecomWorld = synth.TelecomWorld

// NewTelecomWorld generates a telecom world.
func NewTelecomWorld(cfg TelecomConfig) (*TelecomWorld, error) {
	return synth.NewTelecomWorld(cfg)
}

// LinkerEngine is the §IV.B data-linking engine.
type LinkerEngine = linker.Engine

// LinkerAnnotators extract typed identity tokens from documents.
type LinkerAnnotators = linker.Annotators

// NewCustomerLinker builds a linking engine over a car-rental world's
// customer table.
func NewCustomerLinker(db *warehouse.DB) (*LinkerEngine, error) {
	return core.NewCustomerLinker(db)
}

// NewCarRentalAnnotators builds identity annotators with the car-rental
// name and city inventories.
func NewCarRentalAnnotators() *LinkerAnnotators { return core.NewCarRentalAnnotators() }

// LinkerToken is a typed identity token extracted from a document.
type LinkerToken = linker.Token

// LinkerGoldLabel is the true entity behind an evaluation document.
type LinkerGoldLabel = linker.GoldLabel

// DriverDetector finds churn-driver mentions in message text (§VI).
type DriverDetector = churn.DriverDetector

// NewChurnDriverDetector builds a detector over the standard churn-driver
// phrase inventory (competitor tariff, problem resolution, service
// issues, billing issues, low awareness).
func NewChurnDriverDetector() *DriverDetector {
	return churn.NewDriverDetector(synth.DriverPhraseSeed())
}

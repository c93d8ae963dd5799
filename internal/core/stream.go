package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"bivoc/internal/annotate"
	"bivoc/internal/clean"
	"bivoc/internal/mining"
	"bivoc/internal/pipeline"
	"bivoc/internal/rng"
	"bivoc/internal/textproc"
)

// StreamMonitor gives a running streaming pipeline's live surfaces to an
// observer: per-stage counters and the query-while-indexing view of the
// mining index. Obtained via CallAnalysisConfig.Monitor.
type StreamMonitor struct {
	stats func() []pipeline.StageStats
	live  *mining.StreamIndex
	done  chan struct{}
}

// StageStats snapshots the pipeline's per-stage counters (in/out/skip/
// errors, queue depth, latency). Safe to call while the run is in flight.
func (m *StreamMonitor) StageStats() []pipeline.StageStats { return m.stats() }

// Live returns the streaming mining index. Every query on it (Counts,
// Associate, RelativeFrequency, ...) answers over the documents indexed
// so far — reporting stays available while data keeps arriving.
func (m *StreamMonitor) Live() *mining.StreamIndex { return m.live }

// Done is closed when the pipeline finishes (drain or abort). Monitor
// callbacks should select on it and return promptly.
func (m *StreamMonitor) Done() <-chan struct{} { return m.done }

// callJob carries one call through the pipeline stages; idx keys results
// back to World.Calls order so output is deterministic regardless of
// which worker handled which call.
type callJob struct {
	idx        int
	transcript []string
	fields     map[string]string
	concepts   []annotate.Concept
}

// buildCallPipeline assembles Figure 3 as the staged concurrent
// pipeline:
//
//	source(calls) → transcribe → link → annotate → sink
//
// transcribe carries the CPU weight (the ASR decoder runs there) and
// gets cfg.Workers workers. link only attaches warehouse fields, and
// annotate costs a trie step and a lexicon lookup per word, a few
// microseconds a call and less than the sink that indexes it: both run
// single. A second annotate worker buys ingest rate the sink cannot
// take, and under serving it only adds publishes, WAL syncs and
// compactions beside the readers, which lengthens their tail.
// Worker-count invariance holds because every stochastic step draws from
// a per-call RNG substream keyed by call ID, results are keyed by call
// index, and sealed indexes are rebuilt in ID order.
//
// The returned toDoc projects a finished job onto the mining document
// for that call. Both the batch path (analyzeStreaming) and the serving
// path (NewServeServer) are sinks over this one pipeline.
func (ca *CallAnalysis) buildCallPipeline() (p *pipeline.Pipeline[callJob], toDoc func(callJob) mining.Document) {
	en := BuildCarRentalAnnotator()
	cleaner := clean.NewCleaner()
	world := ca.World
	calls := world.Calls
	workers := ca.Config.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	decodeRnd := rng.New(ca.Config.World.Seed).SplitString("asr-noise")

	transcribe := func(ctx context.Context, j callJob) (callJob, error) {
		call := calls[j.idx]
		switch {
		case ca.Config.UseNotes:
			// The notes channel is cleaned like SMS: shorthand normalized
			// through the lingo dictionaries before analysis.
			j.transcript = textproc.Words(cleaner.NormalizeSMS(world.AgentNote(call)))
		case ca.Recognizer != nil:
			hyp, err := ca.Recognizer.Transcribe(decodeRnd.SplitString(call.ID), call.Transcript)
			if err != nil {
				return j, fmt.Errorf("core: transcribing %s: %w", call.ID, err)
			}
			j.transcript = hyp
		default:
			j.transcript = call.Transcript
		}
		return j, nil
	}
	link := func(ctx context.Context, j callJob) (callJob, error) {
		call := calls[j.idx]
		agent := world.Agents[call.AgentIdx]
		trained := "no"
		if agent.Trained {
			trained = "yes"
		}
		j.fields = map[string]string{
			"outcome": call.Outcome,
			"agent":   agent.ID,
			"trained": trained,
		}
		return j, nil
	}
	annotateStage := func(ctx context.Context, j callJob) (callJob, error) {
		j.concepts = AnnotateTranscript(en, j.transcript)
		return j, nil
	}

	stages := []pipeline.Stage[callJob]{
		{Name: "transcribe", Workers: workers, Fn: transcribe},
		{Name: "link", Workers: 1, Fn: link},
		{Name: "annotate", Workers: 1, Fn: annotateStage},
	}
	keyFn := func(j callJob) string { return calls[j.idx].ID }
	if ca.Config.FaultInject != nil {
		for i := range stages {
			stages[i] = pipeline.InjectFaults(stages[i], keyFn, ca.Config.FaultInject)
		}
	}
	p = pipeline.New[callJob]("call-analysis", stages...).
		WithKey(keyFn).
		WithSeed(ca.Config.World.Seed).
		WithFaultTolerance(ca.Config.FaultTolerance)
	toDoc = func(j callJob) mining.Document {
		return mining.Document{
			ID:       calls[j.idx].ID,
			Concepts: j.concepts,
			Fields:   j.fields,
			Time:     calls[j.idx].Day,
		}
	}
	return p, toDoc
}

// callSource feeds every call of the world into the pipeline.
func (ca *CallAnalysis) callSource() pipeline.Source[callJob] {
	return pipeline.IndexedSource(len(ca.World.Calls), func(i int) callJob { return callJob{idx: i} })
}

// analyzeStreaming runs the call pipeline to completion, streaming every
// finished call into a live mining index and sealing it at the end.
func (ca *CallAnalysis) analyzeStreaming(ctx context.Context) error {
	calls := ca.World.Calls
	p, toDoc := ca.buildCallPipeline()

	live := mining.NewStreamIndex()
	transcripts := make([][]string, len(calls))
	sink := func(j callJob) error {
		transcripts[j.idx] = j.transcript
		live.Add(toDoc(j))
		return nil
	}

	var monWG sync.WaitGroup
	var mon *StreamMonitor
	if ca.Config.Monitor != nil {
		mon = &StreamMonitor{stats: p.Stats, live: live, done: make(chan struct{})}
		monWG.Add(1)
		go func() {
			defer monWG.Done()
			ca.Config.Monitor(mon)
		}()
	}

	err := p.Run(ctx, ca.callSource(), sink)
	if mon != nil {
		close(mon.done)
		monWG.Wait()
	}
	if err != nil {
		return err
	}
	// Dead-lettered calls never reached the sink: their transcripts stay
	// nil, and the sealed index must hold exactly the survivors — the
	// accounting invariant that separates "degraded gracefully" from
	// "silently lost data".
	ca.DeadLetters = p.DeadLetters()
	ca.Transcripts = transcripts
	ix, err := live.SealChecked(len(calls) - len(ca.DeadLetters))
	if err != nil {
		return fmt.Errorf("core: call analysis: %w", err)
	}
	ca.Index = ix
	return nil
}

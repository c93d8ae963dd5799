// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablation benchmarks for the design choices called out
// in DESIGN.md. Each experiment benchmark reports the measured quantity
// as a custom metric, and the b.N loop times the full regeneration so
// throughput regressions in any pipeline stage are visible.
//
// Benchmarks run on deliberately SMALL corpora to keep the suite fast,
// so their reported metrics carry small-sample noise; the canonical
// paper-vs-measured numbers in EXPERIMENTS.md come from
// `cmd/experiments`, which uses the full default corpora.
//
// These are the measurements no metric of the repository's benchmark
// covers (paper tables, ablations, ASR-on decoding); nothing records
// their output. Serving, mining, storage, federation and ingest numbers
// come from cmd/bivocbench (`make bench`), declared in BENCHMARK.json.
//
// Run with:
//
//	go test -bench=. -benchmem -run='^$'
package bivoc_test

import (
	"strings"
	"testing"

	"bivoc"
	"bivoc/internal/mining"
	"bivoc/internal/rng"
	"bivoc/internal/warehouse"
)

// benchCalls keeps ASR-heavy benchmarks laptop-fast; the cmd/experiments
// harness uses larger corpora for the recorded numbers.
const benchCalls = 30

// --- Table I: ASR performance (WER per entity class) ---

func BenchmarkTableI_ASRPerformance(b *testing.B) {
	cfg := bivoc.DefaultASRExperimentConfig()
	cfg.NumCalls = benchCalls
	var last *bivoc.ASRResult
	for i := 0; i < b.N; i++ {
		res, err := bivoc.RunASRExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(100*last.Overall, "WER%")
	b.ReportMetric(100*last.Names, "nameWER%")
	b.ReportMetric(100*last.Numbers, "numWER%")
}

// --- §IV.A.1: constrained second-pass name recognition ---

func BenchmarkSecondPassNameRecognition(b *testing.B) {
	cfg := bivoc.DefaultSecondPassConfig()
	cfg.NumCalls = benchCalls
	var last *bivoc.SecondPassResult
	for i := 0; i < b.N; i++ {
		res, err := bivoc.RunSecondPassExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(100*last.Improvement, "absImprove%")
}

// referenceAnalysis builds the analysis-layer pipeline state shared by
// the association-table benchmarks.
func referenceAnalysis(b *testing.B) *bivoc.CallAnalysis {
	b.Helper()
	cfg := bivoc.DefaultCallAnalysisConfig()
	cfg.UseASR = false
	cfg.World.CallsPerDay = 400
	cfg.World.Days = 5
	ca, err := bivoc.RunCallAnalysis(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return ca
}

// --- Table II: location × vehicle-type association ---

func BenchmarkTableII_LocationVehicleAssociation(b *testing.B) {
	ca := referenceAnalysis(b)
	b.ResetTimer()
	var cells int
	for i := 0; i < b.N; i++ {
		t2 := ca.LocationVehicleTable()
		cells = len(t2.Rows) * len(t2.Cols)
	}
	b.ReportMetric(float64(cells), "cells")
}

// --- Table III: customer intention × outcome ---

func BenchmarkTableIII_IntentVsOutcome(b *testing.B) {
	ca := referenceAnalysis(b)
	b.ResetTimer()
	var strong, weak float64
	for i := 0; i < b.N; i++ {
		t3 := ca.IntentOutcomeTable()
		strong = t3.Cells[0][0].RowShare
		weak = t3.Cells[1][0].RowShare
	}
	b.ReportMetric(100*strong, "strongConv%") // paper: 63
	b.ReportMetric(100*weak, "weakConv%")     // paper: 32
}

// --- Table IV: agent utterance × outcome ---

func BenchmarkTableIV_AgentUtteranceVsOutcome(b *testing.B) {
	ca := referenceAnalysis(b)
	b.ResetTimer()
	var value, disc float64
	for i := 0; i < b.N; i++ {
		t4 := ca.AgentUtteranceTable()
		value = t4.Cells[0][0].RowShare
		disc = t4.Cells[1][0].RowShare
	}
	b.ReportMetric(100*value, "valueConv%") // paper: 59
	b.ReportMetric(100*disc, "discConv%")   // paper: 72
}

// --- §V.C: agent-training uplift ---

func BenchmarkAgentTrainingUplift(b *testing.B) {
	cfg := bivoc.DefaultTrainingConfig()
	cfg.World.CallsPerDay = 250
	cfg.BeforeDays = 8
	cfg.AfterDays = 8
	var last *bivoc.TrainingResult
	for i := 0; i < b.N; i++ {
		res, err := bivoc.RunTrainingExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(100*last.Uplift, "uplift%") // paper: +3
	b.ReportMetric(last.TTest.POneSided, "pValue")
}

// --- §VI: churn prediction ---

func BenchmarkChurnPrediction(b *testing.B) {
	cfg := bivoc.DefaultChurnExperimentConfig()
	cfg.World.NumCustomers = 600
	cfg.World.Emails = 1200
	cfg.World.SMS = 0
	var last *bivoc.ChurnExperimentResult
	for i := 0; i < b.N; i++ {
		res, err := bivoc.RunChurnExperiment(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(100*last.ChurnerRecall, "recall%")      // paper: 53.6
	b.ReportMetric(100*last.UnlinkableRate, "unlinkable%") // paper: 18
}

// --- Figure 1: noisy VoC generation throughput ---

func BenchmarkFig1_VoCGeneration(b *testing.B) {
	cfg := bivoc.DefaultTelecomConfig()
	cfg.NumCustomers = 200
	cfg.Emails = 500
	cfg.SMS = 500
	for i := 0; i < b.N; i++ {
		if _, err := bivoc.NewTelecomWorld(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 4: association drill-down ---

func BenchmarkFig4_AssociationDrillDown(b *testing.B) {
	ca := referenceAnalysis(b)
	row := bivoc.ConceptDim("customer intention", "weak start")
	col := bivoc.FieldDim("outcome", "reservation")
	b.ResetTimer()
	var docs int
	for i := 0; i < b.N; i++ {
		docs = len(ca.Index.DrillDown(row, col))
	}
	b.ReportMetric(float64(docs), "docs")
}

// --- §IV.B: EM weight learning ---

func BenchmarkEMWeightLearning(b *testing.B) {
	world, engine, annotators := linkerFixture(b)
	docs := identityDocs(b, world, annotators, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fresh engine per iteration so EM always starts from uniform.
		e, err := bivoc.NewCustomerLinker(world.DB)
		if err != nil {
			b.Fatal(err)
		}
		e.LearnWeights(docs, 3)
	}
	_ = engine
}

// linkerFixture builds a world plus linker for the linking ablations.
func linkerFixture(b testing.TB) (*bivoc.CarRentalWorld, *bivoc.LinkerEngine, *bivoc.LinkerAnnotators) {
	b.Helper()
	cfg := bivoc.DefaultCarRentalConfig()
	cfg.NumCustomers = 800
	cfg.CallsPerDay = 1
	cfg.Days = 0
	world, err := bivoc.NewCarRentalWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	engine, err := bivoc.NewCustomerLinker(world.DB)
	if err != nil {
		b.Fatal(err)
	}
	return world, engine, bivoc.NewCarRentalAnnotators()
}

// identityDocs synthesizes noisy identity documents for n customers.
func identityDocs(b testing.TB, world *bivoc.CarRentalWorld, annotators *bivoc.LinkerAnnotators, n int) [][]bivoc.LinkerToken {
	b.Helper()
	r := rng.New(7)
	var docs [][]bivoc.LinkerToken
	for i := 0; i < n && i < len(world.Customers); i++ {
		c := world.Customers[i]
		// A partially recognized identity: full name, 60% of calls carry
		// a truncated phone fragment.
		text := "name is " + c.Given + " " + c.Surname
		if r.Bool(0.6) {
			text += " phone number is " + c.Phone[:6]
		}
		docs = append(docs, annotators.Extract(text))
	}
	return docs
}

// --- Ablation: Fagin/TA merge vs naive full scan ---

func BenchmarkAblationFaginVsFullScan(b *testing.B) {
	world, engine, annotators := linkerFixture(b)
	docs := identityDocs(b, world, annotators, 100)
	b.Run("threshold-merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, d := range docs {
				engine.Link(d, 3)
			}
		}
	})
	b.Run("full-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, d := range docs {
				engine.LinkFullScan(d, 3)
			}
		}
	})
}

// customerGold labels document i with customer i, who is row i of the
// customers table: the world inserts its customers in order.
func customerGold(b testing.TB, world *bivoc.CarRentalWorld, n int) []*bivoc.LinkerGoldLabel {
	b.Helper()
	tab := world.DB.MustTable("customers")
	gold := make([]*bivoc.LinkerGoldLabel, n)
	for i := range gold {
		gold[i] = &bivoc.LinkerGoldLabel{Table: "customers", Row: warehouse.RowID(i)}
		if id := tab.GetString(gold[i].Row, "id"); id != world.Customers[i].ID {
			b.Fatalf("row %d holds customer %s, want %s", i, id, world.Customers[i].ID)
		}
	}
	return gold
}

// --- Ablation: combined vs per-entity linking accuracy ---

func BenchmarkAblationCombinedVsIndividualEntities(b *testing.B) {
	world, engine, annotators := linkerFixture(b)
	docs := identityDocs(b, world, annotators, 200)
	gold := customerGold(b, world, len(docs))
	var combined, individual float64
	for i := 0; i < b.N; i++ {
		correctC, correctI := 0, 0
		for d, doc := range docs {
			if m := engine.LinkTable(doc, "customers", 1); len(m) == 1 && m[0].Row == gold[d].Row {
				correctC++
			}
			if m, ok := engine.LinkIndividualBest(doc, "customers"); ok && m.Row == gold[d].Row {
				correctI++
			}
		}
		combined = float64(correctC) / float64(len(docs))
		individual = float64(correctI) / float64(len(docs))
	}
	b.ReportMetric(100*combined, "combinedAcc%")
	b.ReportMetric(100*individual, "individualAcc%")
}

// --- Ablation: EM-learned vs uniform attribute weights ---

func BenchmarkAblationEMVsUniformWeights(b *testing.B) {
	world, _, annotators := linkerFixture(b)
	docs := identityDocs(b, world, annotators, 200)
	gold := customerGold(b, world, len(docs))
	var uniformAcc, emAcc float64
	for i := 0; i < b.N; i++ {
		uniform, err := bivoc.NewCustomerLinker(world.DB)
		if err != nil {
			b.Fatal(err)
		}
		res := uniform.Evaluate(docs, gold, 1)
		uniformAcc = float64(res.Correct) / float64(res.Docs)
		em, err := bivoc.NewCustomerLinker(world.DB)
		if err != nil {
			b.Fatal(err)
		}
		em.LearnWeights(docs, 3)
		res = em.Evaluate(docs, gold, 1)
		emAcc = float64(res.Correct) / float64(res.Docs)
	}
	b.ReportMetric(100*uniformAcc, "uniformAcc%")
	b.ReportMetric(100*emAcc, "emAcc%")
}

// --- Ablation: interval vs point estimate for association ranking ---

func BenchmarkAblationIntervalVsPointEstimate(b *testing.B) {
	ca := referenceAnalysis(b)
	b.ResetTimer()
	var pointTop, lowerTop float64
	for i := 0; i < b.N; i++ {
		t2 := ca.LocationVehicleTable()
		// Rank once by point estimate, once by the conservative lower
		// bound; report how much the top point-estimate cell shrinks.
		var maxPoint, itsLower float64
		for _, row := range t2.Cells {
			for _, cell := range row {
				if cell.PointIndex > maxPoint {
					maxPoint = cell.PointIndex
					itsLower = cell.LowerIndex
				}
			}
		}
		pointTop, lowerTop = maxPoint, itsLower
	}
	b.ReportMetric(pointTop, "topPointIdx")
	b.ReportMetric(lowerTop, "itsLowerIdx")
}

// --- Ablation: top-N sweep for the constrained second pass ---

func BenchmarkAblationTopNSweep(b *testing.B) {
	for _, topN := range []int{2, 5, 10} {
		b.Run("topN="+itoa(topN), func(b *testing.B) {
			cfg := bivoc.DefaultSecondPassConfig()
			cfg.NumCalls = benchCalls
			cfg.TopN = topN
			var last *bivoc.SecondPassResult
			for i := 0; i < b.N; i++ {
				res, err := bivoc.RunSecondPassExperiment(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(100*last.Improvement, "absImprove%")
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// --- Ablation: beam width — the paper's speed/accuracy tradeoff ---
// §III: "ASR systems can be made faster through avoiding computationally
// costly steps ... However, reduction in speed always comes at the cost
// of increase in WER." Narrower beams are the decoder-side equivalent.

func BenchmarkAblationBeamWidthSweep(b *testing.B) {
	for _, width := range []int{32, 96, 192} {
		b.Run("beam="+itoa(width), func(b *testing.B) {
			cfg := bivoc.DefaultASRExperimentConfig()
			cfg.NumCalls = benchCalls
			cfg.Decoder.BeamWidth = width
			var last *bivoc.ASRResult
			for i := 0; i < b.N; i++ {
				res, err := bivoc.RunASRExperiment(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(100*last.Overall, "WER%")
		})
	}
}

// --- Word spotting (§II baseline) throughput and recall ---

func BenchmarkWordSpotting(b *testing.B) {
	rec, err := bivoc.NewCarRentalRecognizer(bivoc.CallCenterChannel, bivoc.DefaultDecoderConfig())
	if err != nil {
		b.Fatal(err)
	}
	sp := bivoc.NewSpotter(rec.Lex)
	sp.Threshold = 0.5
	ref := strings.Fields("i can offer you a discount on this booking that is a good rate")
	phones, err := rec.Lex.Phones(ref)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(3)
	obs := rec.Channel.Corrupt(r, phones)
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if len(sp.Find("discount", obs)) > 0 {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "hitRate")
}

// --- Ablation: SMS normalization on/off for churn ---

func BenchmarkAblationSMSNormalization(b *testing.B) {
	base := bivoc.DefaultChurnExperimentConfig()
	base.Channel = "sms"
	base.World.NumCustomers = 600
	base.World.Emails = 0
	base.World.SMS = 2500
	for _, normalize := range []bool{true, false} {
		name := "normalized"
		if !normalize {
			name = "raw"
		}
		b.Run(name, func(b *testing.B) {
			cfg := base
			cfg.NormalizeSMS = normalize
			var last *bivoc.ChurnExperimentResult
			for i := 0; i < b.N; i++ {
				res, err := bivoc.RunChurnExperiment(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(100*last.ChurnerRecall, "recall%")
		})
	}
}

// --- Ablation: language-model order (no-context / bigram / trigram) ---

func BenchmarkAblationLMOrderSweep(b *testing.B) {
	for _, order := range []int{1, 2, 3} {
		b.Run("order="+itoa(order), func(b *testing.B) {
			cfg := bivoc.DefaultASRExperimentConfig()
			cfg.NumCalls = benchCalls
			cfg.LMOrder = order
			var last *bivoc.ASRResult
			for i := 0; i < b.N; i++ {
				res, err := bivoc.RunASRExperiment(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(100*last.Overall, "WER%")
		})
	}
}

// --- Parallel transcription throughput (§III's volume challenge) ---

func BenchmarkParallelTranscription(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run("workers="+itoa(workers), func(b *testing.B) {
			cfg := bivoc.DefaultCallAnalysisConfig()
			cfg.World.CallsPerDay = 20
			cfg.World.Days = 1
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := bivoc.RunCallAnalysis(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Streaming pipeline throughput: sequential vs 1/2/4/8 workers ---
// Workers=1 is the sequential path; higher counts scale the transcribe
// and annotate pools. Decoding is pure CPU, so wall-clock speedup tracks
// available cores; on a single-core host the pipeline must at least not
// regress. BenchmarkLatencyOverlap in internal/pipeline shows the
// latency-bound case (remote ASR), which scales with workers even on
// one core.

func BenchmarkPipelineCallAnalysis(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run("workers="+itoa(workers), func(b *testing.B) {
			cfg := bivoc.DefaultCallAnalysisConfig()
			cfg.World.CallsPerDay = benchCalls
			cfg.World.Days = 1
			cfg.Workers = workers
			var calls int
			for i := 0; i < b.N; i++ {
				ca, err := bivoc.RunCallAnalysis(cfg)
				if err != nil {
					b.Fatal(err)
				}
				calls = ca.Index.Len()
			}
			b.ReportMetric(float64(calls)*float64(b.N)/b.Elapsed().Seconds(), "calls/s")
		})
	}
}

// --- Streaming index: Add throughput while queries run ---

func BenchmarkStreamIndexAddWhileQuery(b *testing.B) {
	ca := referenceAnalysis(b)
	docs := make([]bivoc.MiningDocument, ca.Index.Len())
	for i := range docs {
		docs[i] = ca.Index.Doc(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		si := bivoc.NewStreamIndex()
		stop := make(chan struct{})
		go func() {
			weak := bivoc.ConceptDim("customer intention", "weak start")
			res := bivoc.FieldDim("outcome", "reservation")
			for {
				select {
				case <-stop:
					return
				default:
					si.Snapshot(func(ix *mining.Index) { ix.CountBoth(weak, res) })
				}
			}
		}()
		for _, d := range docs {
			si.Add(d)
		}
		close(stop)
		si.Seal()
	}
	b.ReportMetric(float64(len(docs)), "docs")
}

package core

import (
	"fmt"
	"strings"
	"testing"

	"bivoc/internal/annotate"
	"bivoc/internal/asr"
	"bivoc/internal/synth"
)

func fastWorld() synth.CarRentalConfig {
	cfg := synth.DefaultCarRentalConfig()
	cfg.NumAgents = 20
	cfg.NumCustomers = 80
	cfg.CallsPerDay = 150
	cfg.Days = 4
	return cfg
}

func TestClassifyIntent(t *testing.T) {
	greeting := strings.Fields("thank you for calling please tell me how can i help you")
	strong := append(append([]string{}, greeting...), strings.Fields("i would like to make a booking")...)
	weak := append(append([]string{}, greeting...), strings.Fields("can i know the rates for a car")...)
	service := append(append([]string{}, greeting...), strings.Fields("i want to change my address")...)
	if got := ClassifyIntent(strong); got != IntentStrongConcept {
		t.Errorf("strong → %q", got)
	}
	if got := ClassifyIntent(weak); got != IntentWeakConcept {
		t.Errorf("weak → %q", got)
	}
	if got := ClassifyIntent(service); got != "" {
		t.Errorf("service → %q", got)
	}
	if got := ClassifyIntent(nil); got != "" {
		t.Errorf("empty → %q", got)
	}
}

func TestClassifyIntentTieGoesWeak(t *testing.T) {
	// "can i know the rates for booking a car": booking (strong) + know,
	// rates (weak) → weak wins on count; engineered tie also goes weak.
	tie := strings.Fields("i want to book what rate")
	if got := ClassifyIntent(tie); got != IntentWeakConcept {
		t.Errorf("tie → %q", got)
	}
}

func TestAnnotateTranscriptConcepts(t *testing.T) {
	en := BuildCarRentalAnnotator()
	transcript := strings.Fields(
		"thank you for calling please tell me how can i help you " +
			"i want to book a car i am looking for a seven seater in new york " +
			"i can offer you a discount that is a good rate")
	cs := AnnotateTranscript(en, transcript)
	var cats []string
	for _, c := range cs {
		cats = append(cats, c.Category)
	}
	joined := strings.Join(cats, ",")
	for _, want := range []string{CatIntent, CatVehicle, CatPlace, CatDiscount, CatValue} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing category %s in %v", want, cats)
		}
	}
	// The vehicle concept must be canonicalized.
	for _, c := range cs {
		if c.Category == CatVehicle && c.Canonical != "suv" {
			t.Errorf("seven seater → %q", c.Canonical)
		}
	}
}

// TestAnnotateTranscriptAllocations guards the annotate stage's cost and
// what it leaves behind: over a 70-word transcript it allocates the
// result and nothing else (joining the transcript, tokenizing it again,
// tagging, growing the result and sorting it made 12), and the result,
// which the indexed document keeps, is no longer than appending its
// concepts to nil at once would make it.
func TestAnnotateTranscriptAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops scratch buffers at random under the race detector")
	}
	en := BuildCarRentalAnnotator()
	transcript := strings.Fields(
		"thank you for calling how can i help you today " +
			"hi i would like to know the rates for a car in new york next week " +
			"sure we have a wonderful rate on a seven seater and the latest model " +
			"of the compact is also available with our corporate program discount " +
			"that sounds good can you tell me the total for five days please i will pay by card thanks")
	if len(transcript) != 70 {
		t.Fatalf("transcript has %d words, want 70", len(transcript))
	}
	cs := AnnotateTranscript(en, transcript)
	if len(cs) < 5 {
		t.Fatalf("concepts = %v, want the intent, place, vehicle, discount and value concepts", cs)
	}
	if want := cap(append([]annotate.Concept(nil), cs...)); cap(cs) != want {
		t.Errorf("result has capacity %d for %d concepts, want %d", cap(cs), len(cs), want)
	}
	if got := testing.AllocsPerRun(200, func() { AnnotateTranscript(en, transcript) }); got > 1 {
		t.Errorf("AnnotateTranscript allocates %v times, want at most 1", got)
	}
}

func TestRunCallAnalysisReferenceMode(t *testing.T) {
	cfg := DefaultCallAnalysisConfig()
	cfg.World = fastWorld()
	cfg.UseASR = false
	ca, err := RunCallAnalysis(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ca.Index.Len() != len(ca.World.Calls) {
		t.Fatalf("indexed %d of %d calls", ca.Index.Len(), len(ca.World.Calls))
	}

	t3 := ca.IntentOutcomeTable()
	strongConv := t3.Cells[0][0].RowShare
	weakConv := t3.Cells[1][0].RowShare
	if strongConv <= weakConv {
		t.Errorf("Table III shape broken: strong %v <= weak %v", strongConv, weakConv)
	}
	if strongConv < 0.5 || strongConv > 0.8 {
		t.Errorf("strong conversion %v out of plausible band", strongConv)
	}
	if weakConv < 0.15 || weakConv > 0.5 {
		t.Errorf("weak conversion %v out of plausible band", weakConv)
	}

	t4 := ca.AgentUtteranceTable()
	valueConv := t4.Cells[0][0].RowShare
	discConv := t4.Cells[1][0].RowShare
	if discConv <= valueConv {
		t.Errorf("Table IV shape broken: discount %v <= value %v", discConv, valueConv)
	}
}

func TestRunCallAnalysisLocationVehicleTable(t *testing.T) {
	cfg := DefaultCallAnalysisConfig()
	cfg.World = fastWorld()
	cfg.UseASR = false
	ca, err := RunCallAnalysis(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t2 := ca.LocationVehicleTable()
	if len(t2.Rows) != len(synth.Cities()) || len(t2.Cols) != len(synth.VehicleTypes()) {
		t.Fatalf("table shape %dx%d", len(t2.Rows), len(t2.Cols))
	}
	total := 0
	for _, row := range t2.Cells {
		for _, cell := range row {
			total += cell.Ncell
		}
	}
	if total == 0 {
		t.Error("location×vehicle table is empty")
	}
}

func TestRunCallAnalysisWithASRPreservesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("ASR decoding is slow")
	}
	cfg := DefaultCallAnalysisConfig()
	cfg.World = fastWorld()
	cfg.World.CallsPerDay = 60
	cfg.World.Days = 2
	cfg.Channel = asr.TelephoneChannel
	cfg.Decoder.BeamWidth = 96
	ca, err := RunCallAnalysis(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t3 := ca.IntentOutcomeTable()
	strongConv := t3.Cells[0][0].RowShare
	weakConv := t3.Cells[1][0].RowShare
	if t3.Cells[0][0].Nver == 0 || t3.Cells[1][0].Nver == 0 {
		t.Fatal("no intents detected on ASR output")
	}
	if strongConv <= weakConv {
		t.Errorf("ASR Table III shape broken: strong %v <= weak %v", strongConv, weakConv)
	}
}

func TestRunTrainingExperiment(t *testing.T) {
	cfg := DefaultTrainingConfig()
	cfg.World.NumAgents = 90
	cfg.World.NumCustomers = 200
	cfg.World.CallsPerDay = 250
	cfg.BeforeDays = 8
	cfg.AfterDays = 8
	cfg.TrainedCount = 20
	res, err := RunTrainingExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Uplift <= 0 {
		t.Errorf("training uplift %v should be positive", res.Uplift)
	}
	if res.BeforeGap > res.Uplift {
		t.Errorf("before-gap %v exceeds uplift %v", res.BeforeGap, res.Uplift)
	}
	if res.TTest.T <= 0 {
		t.Errorf("t statistic %v should favour the trained group", res.TTest.T)
	}
	if len(res.Before) != 90 || len(res.After) != 90 {
		t.Error("per-agent windows incomplete")
	}
	trained := 0
	for _, a := range res.After {
		if a.Trained {
			trained++
		}
	}
	if trained != 20 {
		t.Errorf("trained agents in after-window: %d", trained)
	}
}

func TestRunTrainingExperimentValidation(t *testing.T) {
	if _, err := RunTrainingExperiment(TrainingConfig{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestAgentWindowStatsMetrics(t *testing.T) {
	a := AgentWindowStats{Reservations: 30, Unbooked: 60}
	if a.ConversionRate() != 1.0/3.0 {
		t.Errorf("conversion = %v", a.ConversionRate())
	}
	if (AgentWindowStats{}).ConversionRate() != 0 {
		t.Error("empty stats should be zero")
	}
}

func TestRunASRExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("ASR decoding is slow")
	}
	cfg := DefaultASRExperimentConfig()
	cfg.NumCalls = 25
	cfg.Decoder.BeamWidth = 96
	res, err := RunASRExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overall <= 0 || res.Overall >= 1 {
		t.Errorf("overall WER %v implausible", res.Overall)
	}
	if res.Names <= res.Overall {
		t.Errorf("Table I shape: names WER %v should exceed overall %v", res.Names, res.Overall)
	}
	if res.Utterances != 25 || res.RefWords == 0 {
		t.Errorf("corpus counters wrong: %+v", res)
	}
}

func TestRunSecondPassExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("ASR decoding is slow")
	}
	cfg := DefaultSecondPassConfig()
	cfg.NumCalls = 25
	cfg.Decoder.BeamWidth = 96
	res, err := RunSecondPassExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Improvement < 0 {
		t.Errorf("second pass should not hurt: %+v", res)
	}
	if res.LinkedCalls == 0 {
		t.Error("no calls linked to the database")
	}
	if res.SecondPassNameAcc <= 0 || res.SecondPassNameAcc > 1 {
		t.Errorf("name accuracy %v out of range", res.SecondPassNameAcc)
	}
}

func TestRunChurnExperiment(t *testing.T) {
	cfg := DefaultChurnExperimentConfig()
	cfg.World.NumCustomers = 600
	cfg.World.Emails = 1800
	cfg.World.SMS = 0
	res, err := RunChurnExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spam == 0 {
		t.Error("no spam detected in a corpus that contains spam")
	}
	if res.UnlinkableRate < 0.05 || res.UnlinkableRate > 0.45 {
		t.Errorf("unlinkable rate %v far from the paper's ≈0.18", res.UnlinkableRate)
	}
	if res.LinkCorrect < 0.7 {
		t.Errorf("linking accuracy %v too low", res.LinkCorrect)
	}
	if res.ChurnersInEval > 0 && res.ChurnerRecall < 0.25 {
		t.Errorf("churner recall %v too low (paper: 0.536)", res.ChurnerRecall)
	}
	if res.ChurnerRecall > 0.9 {
		t.Errorf("churner recall %v implausibly high — identity leak?", res.ChurnerRecall)
	}
	if len(res.TopFeatures) == 0 {
		t.Error("no churn features learned")
	}
}

func TestChurnExperimentSMSChannel(t *testing.T) {
	cfg := DefaultChurnExperimentConfig()
	cfg.Channel = "sms"
	cfg.World.NumCustomers = 250
	cfg.World.Emails = 0
	cfg.World.SMS = 900
	res, err := RunChurnExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 900 {
		t.Errorf("messages = %d", res.Messages)
	}
	if res.Linked == 0 {
		t.Error("no SMS linked")
	}
}

func TestRunCallAnalysisNotesChannel(t *testing.T) {
	cfg := DefaultCallAnalysisConfig()
	cfg.World = fastWorld()
	cfg.UseNotes = true
	ca, err := RunCallAnalysis(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ca.Recognizer != nil {
		t.Error("notes mode should not build a recognizer")
	}
	t3 := ca.IntentOutcomeTable()
	strongConv := t3.Cells[0][0].RowShare
	weakConv := t3.Cells[1][0].RowShare
	if t3.Cells[0][0].Nver == 0 || t3.Cells[1][0].Nver == 0 {
		t.Fatal("no intents detected in agent notes")
	}
	if strongConv <= weakConv {
		t.Errorf("notes-channel Table III shape broken: strong %v <= weak %v", strongConv, weakConv)
	}
	t4 := ca.AgentUtteranceTable()
	if t4.Cells[1][0].Nver == 0 {
		t.Error("no discount concepts detected in notes")
	}
	if t4.Cells[1][0].RowShare <= t4.Cells[0][0].RowShare {
		t.Errorf("notes-channel Table IV shape broken: discount %v <= value %v",
			t4.Cells[1][0].RowShare, t4.Cells[0][0].RowShare)
	}
}

func TestAgentNotesDeterministicAndNoisy(t *testing.T) {
	world, err := synth.NewCarRentalWorld(fastWorld())
	if err != nil {
		t.Fatal(err)
	}
	calls := world.GenerateCalls(0, 1)
	notes := world.AgentNotes(calls)
	if len(notes) != len(calls) {
		t.Fatalf("%d notes for %d calls", len(notes), len(calls))
	}
	for i, n := range notes {
		if n == "" {
			t.Fatalf("empty note for call %s", calls[i].ID)
		}
	}
	// Deterministic: regenerating the same world yields identical notes.
	world2, _ := synth.NewCarRentalWorld(fastWorld())
	calls2 := world2.GenerateCalls(0, 1)
	notes2 := world2.AgentNotes(calls2)
	for i := range notes {
		if notes[i] != notes2[i] {
			t.Fatalf("note %d differs across identical seeds", i)
		}
	}
	// Shorthand should be visible somewhere in the corpus.
	shorthand := false
	for _, n := range notes {
		if strings.Contains(n, "cust") && !strings.Contains(n, "customer") {
			shorthand = true
			break
		}
	}
	if !shorthand {
		t.Error("agent-note noise produced no shorthand at all")
	}
}

func TestParallelTranscriptionDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("ASR decoding is slow")
	}
	base := DefaultCallAnalysisConfig()
	base.World = fastWorld()
	base.World.CallsPerDay = 30
	base.World.Days = 1
	base.Channel = asr.TelephoneChannel
	base.Decoder.BeamWidth = 96

	run := func(workers int) [][]string {
		cfg := base
		cfg.Workers = workers
		ca, err := RunCallAnalysis(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ca.Transcripts
	}
	seq := run(1)
	par := run(4)
	if len(seq) != len(par) {
		t.Fatal("transcript counts differ")
	}
	for i := range seq {
		if strings.Join(seq[i], " ") != strings.Join(par[i], " ") {
			t.Fatalf("call %d transcript differs between 1 and 4 workers", i)
		}
	}
}

// renderAll fingerprints every report surface of a call analysis.
func renderAll(ca *CallAnalysis) string {
	out := ca.IntentOutcomeTable().Render()
	out += ca.AgentUtteranceTable().Render()
	out += ca.LocationVehicleTable().Render()
	for _, r := range ca.WeakStartConversionDrivers() {
		out += r.Concept + "|"
	}
	return out
}

// TestPipelineWorkerCountInvariance is the determinism acceptance
// criterion: the streaming pipeline at Workers ∈ {1, 4, 8} must produce
// byte-identical reports for the same seed.
func TestPipelineWorkerCountInvariance(t *testing.T) {
	base := DefaultCallAnalysisConfig()
	base.World = fastWorld()
	base.UseASR = false
	renders := map[int]string{}
	for _, w := range []int{1, 4, 8} {
		cfg := base
		cfg.Workers = w
		ca, err := RunCallAnalysis(cfg)
		if err != nil {
			t.Fatal(err)
		}
		renders[w] = renderAll(ca)
		// The sealed index must also be positionally deterministic.
		if got := ca.Index.Len(); got != len(ca.World.Calls) {
			t.Fatalf("workers=%d indexed %d docs, want %d", w, got, len(ca.World.Calls))
		}
	}
	if renders[1] != renders[4] || renders[1] != renders[8] {
		t.Fatalf("reports differ across worker counts:\n-- w=1 --\n%s\n-- w=4 --\n%s\n-- w=8 --\n%s",
			renders[1], renders[4], renders[8])
	}
}

// TestPipelineWorkerCountInvarianceASR repeats the invariance check with
// the recognizer in the loop — the stage whose per-call RNG substreams
// make or break determinism.
func TestPipelineWorkerCountInvarianceASR(t *testing.T) {
	if testing.Short() {
		t.Skip("ASR decoding is slow")
	}
	base := DefaultCallAnalysisConfig()
	base.World = fastWorld()
	base.World.CallsPerDay = 25
	base.World.Days = 2
	base.Channel = asr.TelephoneChannel
	base.Decoder.BeamWidth = 96
	renders := map[int]string{}
	for _, w := range []int{1, 4} {
		cfg := base
		cfg.Workers = w
		ca, err := RunCallAnalysis(cfg)
		if err != nil {
			t.Fatal(err)
		}
		renders[w] = renderAll(ca)
	}
	if renders[1] != renders[4] {
		t.Fatal("ASR-mode reports differ between 1 and 4 workers")
	}
}

// TestPipelineNotesModeWorkerInvariance covers the notes channel, whose
// noise stream is keyed per call id.
func TestPipelineNotesModeWorkerInvariance(t *testing.T) {
	base := DefaultCallAnalysisConfig()
	base.World = fastWorld()
	base.UseASR = false
	base.UseNotes = true
	renders := map[int]string{}
	for _, w := range []int{1, 4} {
		cfg := base
		cfg.Workers = w
		ca, err := RunCallAnalysis(cfg)
		if err != nil {
			t.Fatal(err)
		}
		renders[w] = renderAll(ca)
	}
	if renders[1] != renders[4] {
		t.Fatal("notes-mode reports differ between 1 and 4 workers")
	}
}

// TestChurnPipelineWorkerInvariance: the churn experiment's clean→link
// pipeline must not let worker scheduling leak into any reported number.
func TestChurnPipelineWorkerInvariance(t *testing.T) {
	base := DefaultChurnExperimentConfig()
	base.World.NumCustomers = 300
	base.World.Emails = 700
	base.World.SMS = 0
	var results []*ChurnExperimentResult
	for _, w := range []int{1, 4, 8} {
		cfg := base
		cfg.Workers = w
		res, err := RunChurnExperiment(cfg)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	for i := 1; i < len(results); i++ {
		a, b := *results[0], *results[i]
		// TopFeatures is a slice; compare it first, then blank it for the
		// struct comparison.
		if strings.Join(a.TopFeatures, ",") != strings.Join(b.TopFeatures, ",") {
			t.Fatalf("top features differ across worker counts:\n%v\n%v", a.TopFeatures, b.TopFeatures)
		}
		a.TopFeatures, b.TopFeatures = nil, nil
		if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
			t.Fatalf("results differ across worker counts:\n%+v\n%+v", a, b)
		}
	}
}

// TestStreamMonitorLiveQueries drives the Monitor hook: stats must be
// readable and the live index queryable while the run is in flight, and
// Done must close when the pipeline finishes.
func TestStreamMonitorLiveQueries(t *testing.T) {
	cfg := DefaultCallAnalysisConfig()
	cfg.World = fastWorld()
	cfg.UseASR = false
	cfg.Workers = 4
	observed := make(chan int, 1)
	doneClosed := make(chan struct{})
	cfg.Monitor = func(m *StreamMonitor) {
		maxSeen := 0
		for {
			select {
			case <-m.Done():
				select {
				case observed <- maxSeen:
				default:
				}
				close(doneClosed)
				return
			default:
				if n := m.Live().Len(); n > maxSeen {
					maxSeen = n
				}
				for _, st := range m.StageStats() {
					if st.Errors != 0 {
						panic("unexpected stage error")
					}
				}
			}
		}
	}
	ca, err := RunCallAnalysis(cfg)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-doneClosed:
	default:
		t.Fatal("monitor still running after RunCallAnalysis returned")
	}
	if maxSeen := <-observed; maxSeen == 0 {
		t.Fatal("monitor never observed a live document")
	}
	if ca.Index.Len() != len(ca.World.Calls) {
		t.Fatalf("indexed %d calls, want %d", ca.Index.Len(), len(ca.World.Calls))
	}
}

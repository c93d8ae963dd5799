package bivoc_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"bivoc"
	"bivoc/internal/rng"
)

// These tests exercise the public facade end to end — what a downstream
// user of the library sees.

func TestFacadeCallAnalysis(t *testing.T) {
	cfg := bivoc.DefaultCallAnalysisConfig()
	cfg.UseASR = false
	cfg.World.NumAgents = 20
	cfg.World.NumCustomers = 80
	cfg.World.CallsPerDay = 100
	cfg.World.Days = 3
	ca, err := bivoc.RunCallAnalysis(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t3 := ca.IntentOutcomeTable()
	if t3.Cells[0][0].RowShare <= t3.Cells[1][0].RowShare {
		t.Error("facade Table III shape broken")
	}
	if out := t3.Render(); !strings.Contains(out, "strong start") {
		t.Error("render missing rows")
	}
}

func TestFacadeChurn(t *testing.T) {
	cfg := bivoc.DefaultChurnExperimentConfig()
	cfg.World.NumCustomers = 300
	cfg.World.Emails = 800
	cfg.World.SMS = 0
	res, err := bivoc.RunChurnExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Linked == 0 || res.Spam == 0 {
		t.Errorf("facade churn pipeline incomplete: %+v", res)
	}
}

func TestFacadeRecognizerAndSpotter(t *testing.T) {
	rec, err := bivoc.NewCarRentalRecognizer(bivoc.ChannelConfig{}, bivoc.DefaultDecoderConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref := strings.Fields("i want to book a car today")
	hyp, err := rec.Transcribe(rng.New(1), ref)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(hyp, " ") != strings.Join(ref, " ") {
		t.Errorf("clean decode through facade: %v", hyp)
	}
	sp := bivoc.NewSpotter(rec.Lex)
	sp.Threshold = 0.7
	phones, err := rec.Lex.Phones(ref)
	if err != nil {
		t.Fatal(err)
	}
	if hits := sp.Find("book", phones); len(hits) != 1 {
		t.Errorf("spotter through facade: %v", hits)
	}
}

func TestFacadeLinker(t *testing.T) {
	cfg := bivoc.DefaultCarRentalConfig()
	cfg.NumCustomers = 50
	world, err := bivoc.NewCarRentalWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := bivoc.NewCustomerLinker(world.DB)
	if err != nil {
		t.Fatal(err)
	}
	annotators := bivoc.NewCarRentalAnnotators()
	c := world.Customers[0]
	tokens := annotators.Extract("name is " + c.Given + " " + c.Surname + " phone " + c.Phone)
	m := engine.LinkTable(tokens, "customers", 1)
	if len(m) != 1 {
		t.Fatal("facade linking failed")
	}
	if world.DB.MustTable("customers").GetString(m[0].Row, "id") != c.ID {
		t.Errorf("linked to wrong customer")
	}
}

func TestFacadeDriverDetector(t *testing.T) {
	d := bivoc.NewChurnDriverDetector()
	drivers := d.Detect("the network is always down and my bill is too high")
	if len(drivers) < 2 {
		t.Errorf("facade driver detection: %v", drivers)
	}
}

func TestFacadeDims(t *testing.T) {
	if bivoc.ConceptDim("c", "v").Label() != "v[c]" {
		t.Error("ConceptDim label")
	}
	if bivoc.FieldDim("f", "v").Label() != "f=v" {
		t.Error("FieldDim label")
	}
	if bivoc.CategoryDim("c").Label() != "c" {
		t.Error("CategoryDim label")
	}
}

func TestFacadeVersion(t *testing.T) {
	if bivoc.Version == "" {
		t.Error("version empty")
	}
}

// TestFacadeFaultTolerance drives the fault-tolerance surface through
// the public API: transient faults retried away, permanent faults
// dead-lettered and accounted, the same way a production ingest would
// configure it.
func TestFacadeFaultTolerance(t *testing.T) {
	cfg := bivoc.DefaultCallAnalysisConfig()
	cfg.UseASR = false
	cfg.World.NumAgents = 20
	cfg.World.NumCustomers = 80
	cfg.World.CallsPerDay = 80
	cfg.World.Days = 2
	cfg.Workers = 4
	cfg.FaultTolerance = bivoc.FaultTolerance{
		Retry:          bivoc.RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Microsecond, Jitter: 0.5},
		MaxDeadLetters: 50,
	}
	cfg.FaultTolerance.Inject = func(stage, key string, attempt int) error {
		switch {
		case stage == "annotate" && strings.HasSuffix(key, "3") && attempt == 1:
			return bivoc.Transient(errors.New("flaky annotator"))
		case stage == "annotate" && strings.HasSuffix(key, "7"):
			return errors.New("corrupt call")
		}
		return nil
	}
	ca, err := bivoc.RunCallAnalysis(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ca.DeadLetters) == 0 {
		t.Fatal("permanent faults produced no dead letters through the facade")
	}
	var dl bivoc.DeadLetter = ca.DeadLetters[0]
	if dl.Stage != "annotate" || !strings.HasSuffix(dl.Key, "7") {
		t.Fatalf("unexpected dead letter %+v", dl)
	}
	if got, want := ca.Index.Len(), len(ca.World.Calls)-len(ca.DeadLetters); got != want {
		t.Fatalf("facade index holds %d docs, want %d", got, want)
	}
	if !errors.Is(bivoc.Transient(errors.New("x")), bivoc.ErrTransient) {
		t.Fatal("facade Transient does not mark errors with ErrTransient")
	}
}

package bivoc_test

import (
	"context"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"testing"
	"time"

	"bivoc"
	"bivoc/internal/mining"
)

// End-to-end equivalence for the analytics hot path: the full pipelines
// (RunCallAnalysis, RunChurnExperiment) and every bivocd endpoint must
// produce byte-identical output whether mining queries run through the
// naive hash-set oracle or the sorted-postings fast path. Complements
// the per-operation property suite in internal/mining.

// setMiningMode flips the package-level oracle flag and returns a
// restore func for defer.
func setMiningMode(naive bool) func() {
	old := mining.UseNaiveSets
	mining.UseNaiveSets = naive
	return func() { mining.UseNaiveSets = old }
}

// callAnalysisReports runs the call-analysis pipeline and materializes
// every §IV.D report the core layer derives from its index.
func callAnalysisReports(t *testing.T) map[string]any {
	t.Helper()
	cfg := bivoc.DefaultCallAnalysisConfig()
	cfg.UseASR = false
	cfg.World.CallsPerDay = 80
	cfg.World.Days = 3
	ca, err := bivoc.RunCallAnalysis(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]any{
		"intent-outcome":   ca.IntentOutcomeTable(),
		"agent-utterance":  ca.AgentUtteranceTable(),
		"location-vehicle": ca.LocationVehicleTable(),
		"weak-drivers":     ca.WeakStartConversionDrivers(),
		"drilldown": ca.Index.DrillDown(
			bivoc.ConceptDim("customer intention", "weak start"),
			bivoc.FieldDim("outcome", "reservation")),
		"trend":    ca.Index.Trend(bivoc.FieldDim("outcome", "reservation")),
		"concepts": ca.Index.ConceptsInCategory("discount"),
	}
}

func TestCallAnalysisNaiveFastEquivalence(t *testing.T) {
	restore := setMiningMode(true)
	defer restore()
	want := callAnalysisReports(t)
	mining.UseNaiveSets = false
	got := callAnalysisReports(t)
	for name, w := range want {
		if !reflect.DeepEqual(got[name], w) {
			t.Errorf("report %q diverges from naive oracle", name)
		}
	}
}

func TestChurnExperimentNaiveFastEquivalence(t *testing.T) {
	restore := setMiningMode(true)
	defer restore()
	cfg := bivoc.DefaultChurnExperimentConfig()
	cfg.World.NumCustomers = 300
	cfg.World.Emails = 600
	cfg.World.SMS = 0
	want, err := bivoc.RunChurnExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mining.UseNaiveSets = false
	got, err := bivoc.RunChurnExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("churn result diverges from naive oracle:\n got %+v\nwant %+v", got, want)
	}
}

// TestServerEndpointsNaiveFastEquivalence drives every bivocd analytics
// endpoint against one sealed daemon, toggling the oracle flag between
// requests: queries sample the flag per call, so a single server can
// answer the same URL from both implementations. The response cache is
// disabled so each request really recomputes.
func TestServerEndpointsNaiveFastEquivalence(t *testing.T) {
	restore := setMiningMode(false)
	defer restore()
	cfg := bivoc.DefaultServeConfig()
	cfg.Analysis.World.CallsPerDay = 60
	cfg.Analysis.World.Days = 3
	cfg.Addr = "127.0.0.1:0"
	cfg.CacheSize = -1 // no LRU: every request must hit the index
	s, err := bivoc.NewQueryServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-s.IngestDone():
	case <-time.After(60 * time.Second):
		t.Fatal("ingest did not seal")
	}

	weak := "weak start[customer intention]"
	strong := "strong start[customer intention]"
	res := "outcome=reservation"
	unb := "outcome=unbooked"
	conj := weak + " ∧ " + res
	endpoints := map[string]string{
		"count": "/v1/count?" + url.Values{"dim": {res, weak, conj}}.Encode(),
		"associate": "/v1/associate?" + url.Values{
			"row": {strong, weak}, "col": {res, unb}, "confidence": {"0.9"},
		}.Encode(),
		"relfreq":        "/v1/relfreq?" + url.Values{"category": {"discount"}, "featured": {conj}}.Encode(),
		"drilldown":      "/v1/drilldown?" + url.Values{"row": {weak}, "col": {res}, "limit": {"5"}}.Encode(),
		"trend":          "/v1/trend?" + url.Values{"dim": {weak}}.Encode(),
		"concepts-cat":   "/v1/concepts?" + url.Values{"category": {"customer intention"}}.Encode(),
		"concepts-field": "/v1/concepts?" + url.Values{"field": {"outcome"}}.Encode(),
	}
	fetch := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + s.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return string(body)
	}
	for name, path := range endpoints {
		mining.UseNaiveSets = true
		want := fetch(path)
		mining.UseNaiveSets = false
		if got := fetch(path); got != want {
			t.Errorf("%s: body diverges from naive oracle:\n got %s\nwant %s", name, got, want)
		}
	}
}

package bivoc_test

import (
	"net/url"
	"reflect"
	"testing"

	"bivoc"
	"bivoc/internal/mining"
	"bivoc/internal/server"
	"bivoc/internal/voctest"
)

// End-to-end equivalence for the analytics hot path: every §IV.D report
// the call-analysis pipeline derives from its index, and every bivocd
// endpoint over the same corpus, must be byte-identical to what the naive
// hash-set oracle — the NaiveIndex view of the index the batch pipeline
// builds — says. Complements the per-operation property suite in
// internal/mining.

// analysisOracle runs the batch call-analysis pipeline for a serving
// configuration's corpus and returns the naive view of its index: the
// daemon "serves the same index those runs build" (core.ServeConfig), so
// this is the monolithic oracle of every daemon and fleet booted from cfg.
func analysisOracle(t *testing.T, cfg bivoc.CallAnalysisConfig) *mining.NaiveIndex {
	t.Helper()
	ca, err := bivoc.RunCallAnalysis(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ca.Index.Naive()
}

// oracleBodies renders what a sealed daemon (or healthy fleet) at
// generation gen must answer to each named /v1 path: the endpoint table's
// Plan.Local over the naive view, marshalled in the test process.
func oracleBodies(t *testing.T, naive mining.Querier, confidence float64, gen uint64, endpoints map[string]string) map[string]string {
	t.Helper()
	paths := make([]string, 0, len(endpoints))
	for _, path := range endpoints {
		paths = append(paths, path)
	}
	bodies := voctest.Bodies(t, paths, func(endpoint string, params url.Values) (any, error) {
		plan, err := server.NewEndpoints(confidence).Plan(endpoint, params)
		if err != nil {
			return nil, err
		}
		return plan.Local(naive, server.Head{Generation: gen, Sealed: true}), nil
	})
	out := make(map[string]string, len(endpoints))
	for name, path := range endpoints {
		out[name] = string(bodies[path])
	}
	return out
}

// TestCallAnalysisNaiveFastEquivalence runs the call-analysis pipeline
// once and asks the naive view of its index for every report the core
// layer derives from it: each association table again from the rows,
// columns and confidence the fast table carries, the relevancy report,
// a drill-down, a trend and a vocabulary.
func TestCallAnalysisNaiveFastEquivalence(t *testing.T) {
	t.Parallel()
	cfg := bivoc.DefaultCallAnalysisConfig()
	cfg.UseASR = false
	cfg.World.CallsPerDay = 80
	cfg.World.Days = 3
	ca, err := bivoc.RunCallAnalysis(cfg)
	if err != nil {
		t.Fatal(err)
	}
	naive := ca.Index.Naive()
	for name, tbl := range map[string]*mining.AssocTable{
		"intent-outcome":   ca.IntentOutcomeTable(),
		"agent-utterance":  ca.AgentUtteranceTable(),
		"location-vehicle": ca.LocationVehicleTable(),
	} {
		if tbl.Cells[0][0].N != 240 {
			t.Errorf("report %q is over %d calls, want 240", name, tbl.Cells[0][0].N)
		}
		if want := naive.AssociateN(tbl.Rows, tbl.Cols, tbl.Confidence, 0); !reflect.DeepEqual(tbl, want) {
			t.Errorf("report %q diverges from naive oracle:\n got %+v\nwant %+v", name, tbl, want)
		}
	}
	weak := bivoc.ConceptDim("customer intention", "weak start")
	res := bivoc.FieldDim("outcome", "reservation")
	drivers := ca.WeakStartConversionDrivers()
	if len(drivers) == 0 {
		t.Error("no weak-start conversion drivers: nothing compared")
	}
	for name, pair := range map[string][2]any{
		"weak-drivers": {drivers, naive.RelativeFrequency("discount", mining.AndDim(weak, res))},
		"drilldown":    {ca.Index.DrillDown(weak, res), naive.DrillDown(weak, res)},
		"trend":        {ca.Index.Trend(res), naive.Trend(res)},
		"concepts":     {ca.Index.ConceptsInCategory("discount"), naive.ConceptsInCategory("discount")},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Errorf("report %q diverges from naive oracle:\n got %+v\nwant %+v", name, pair[0], pair[1])
		}
	}
}

// TestServerEndpointsNaiveFastEquivalence drives every bivocd analytics
// endpoint against one sealed daemon and requires each body to be the
// bytes the naive oracle renders for the same plan. The response cache is
// disabled so each request really hits the index.
func TestServerEndpointsNaiveFastEquivalence(t *testing.T) {
	t.Parallel()
	cfg := storeEquivConfig("")
	s, stop := runSealedServer(t, cfg)
	defer stop()
	endpoints := storeEquivEndpoints()
	delete(endpoints, "healthz")
	want := oracleBodies(t, analysisOracle(t, cfg.Analysis), cfg.Analysis.Confidence, s.Generation(), endpoints)
	for name, path := range endpoints {
		if got := fetchBody(t, s.Addr(), path); got != want[name] {
			t.Errorf("%s: body diverges from naive oracle:\n got %s\nwant %s", name, got, want[name])
		}
	}
}

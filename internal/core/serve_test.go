package core

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"testing"
	"time"

	"bivoc/internal/mining"
	"bivoc/internal/server"
	"bivoc/internal/synth"
)

// serveTestConfig is a small full-stack world: ASR on, so ingest is
// slow enough that queries genuinely land mid-ingest, and the daemon
// exercises transcribe → link → annotate end to end.
func serveTestConfig() ServeConfig {
	cfg := DefaultServeConfig()
	cfg.Analysis.UseASR = true
	cfg.Analysis.World.CallsPerDay = 12
	cfg.Analysis.World.Days = 3
	cfg.Analysis.Workers = 2
	cfg.Addr = "127.0.0.1:0"
	cfg.SwapEvery = 6
	cfg.SwapInterval = 0 // count cadence only: generation count is deterministic
	return cfg
}

func fetch(t *testing.T, rawurl string, out any) []byte {
	t.Helper()
	resp, err := http.Get(rawurl)
	if err != nil {
		t.Fatalf("GET %s: %v", rawurl, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", rawurl, resp.StatusCode, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: unmarshal: %v\n%s", rawurl, err, body)
		}
	}
	return body
}

func marshalResp(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestServeEndToEnd is the serving-layer acceptance test: bring the
// daemon up on a synthetic car-rental world, query it while it is still
// ingesting, then — after the final seal — pin every /v1 endpoint
// byte-identical to the equivalent direct mining.Index calls of a batch
// RunCallAnalysis over the identical configuration.
func TestServeEndToEnd(t *testing.T) {
	cfg := serveTestConfig()
	s, err := NewServeServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	base := "http://" + s.Addr()
	outcomes := []string{synth.OutcomeReservation, synth.OutcomeUnbooked, synth.OutcomeService}
	countURL := base + "/v1/count?" + url.Values{"dim": {
		"outcome=" + outcomes[0], "outcome=" + outcomes[1], "outcome=" + outcomes[2],
	}}.Encode()

	// Mid-ingest: every answer must be self-consistent with exactly one
	// snapshot — each call has exactly one outcome, so the three counts
	// must sum to that snapshot's total even while totals keep moving.
	midIngest := 0
	for {
		var h server.HealthResponse
		fetch(t, base+"/healthz", &h)
		var c server.CountResponse
		fetch(t, countURL, &c)
		if c.Counts[0]+c.Counts[1]+c.Counts[2] != c.Total {
			t.Fatalf("torn mid-ingest read: %+v", c)
		}
		if !c.Sealed {
			midIngest++
		}
		if h.Sealed {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Logf("%d self-consistent mid-ingest responses before the seal", midIngest)

	select {
	case <-s.IngestDone():
	case <-time.After(60 * time.Second):
		t.Fatal("ingest did not finish")
	}
	if err := s.IngestErr(); err != nil {
		t.Fatal(err)
	}
	totalCalls := cfg.Analysis.World.CallsPerDay * cfg.Analysis.World.Days
	gen, docs, sealed := s.SnapshotInfo()
	if !sealed || docs != totalCalls {
		t.Fatalf("final snapshot: gen=%d docs=%d sealed=%v, want %d sealed", gen, docs, sealed, totalCalls)
	}
	// SwapEvery=6 with no ticker: one generation per 6 docs + the final
	// sealed publish.
	if want := uint64(totalCalls/cfg.SwapEvery + 1); gen != want {
		t.Errorf("generation = %d, want %d (deterministic SwapEvery cadence)", gen, want)
	}

	// Ground truth: the batch pipeline over the identical configuration.
	ca, err := RunCallAnalysis(cfg.Analysis)
	if err != nil {
		t.Fatal(err)
	}
	ix := ca.Index
	if ix.Len() != docs {
		t.Fatalf("batch index has %d docs, daemon served %d", ix.Len(), docs)
	}

	intentStrong := mining.ConceptDim(CatIntent, IntentStrongConcept)
	intentWeak := mining.ConceptDim(CatIntent, IntentWeakConcept)
	resDim := mining.FieldDim("outcome", synth.OutcomeReservation)
	unbDim := mining.FieldDim("outcome", synth.OutcomeUnbooked)

	t.Run("count", func(t *testing.T) {
		var got server.CountResponse
		body := fetch(t, countURL, &got)
		want := server.CountResponse{
			Generation: gen, Sealed: true, Total: ix.Len(),
			Dims: []string{"outcome=" + outcomes[0], "outcome=" + outcomes[1], "outcome=" + outcomes[2]},
			Counts: []int{
				ix.Count(mining.FieldDim("outcome", outcomes[0])),
				ix.Count(mining.FieldDim("outcome", outcomes[1])),
				ix.Count(mining.FieldDim("outcome", outcomes[2])),
			},
		}
		if !bytes.Equal(body, marshalResp(t, want)) {
			t.Errorf("daemon count != direct index count:\n got %s\nwant %s", body, marshalResp(t, want))
		}
	})

	t.Run("associate matches IntentOutcomeTable", func(t *testing.T) {
		v := url.Values{
			"row": {intentStrong.Label(), intentWeak.Label()},
			"col": {resDim.Label(), unbDim.Label()},
		}
		var got server.AssociateResponse
		body := fetch(t, base+"/v1/associate?"+v.Encode(), &got)
		tbl := ca.IntentOutcomeTable()
		want := server.AssociateResponse{
			Generation: gen, Sealed: true, Confidence: tbl.Confidence,
			Rows:  []string{intentStrong.CanonicalLabel(), intentWeak.CanonicalLabel()},
			Cols:  []string{resDim.CanonicalLabel(), unbDim.CanonicalLabel()},
			Cells: tbl.Cells,
		}
		if !bytes.Equal(body, marshalResp(t, want)) {
			t.Errorf("daemon associate != IntentOutcomeTable:\n got %s\nwant %s", body, marshalResp(t, want))
		}
	})

	t.Run("relfreq matches WeakStartConversionDrivers", func(t *testing.T) {
		featured := mining.AndDim(intentWeak, resDim)
		v := url.Values{"category": {CatDiscount}, "featured": {featured.Label()}}
		var got server.RelFreqResponse
		body := fetch(t, base+"/v1/relfreq?"+v.Encode(), &got)
		rel := ca.WeakStartConversionDrivers()
		want := server.RelFreqResponse{
			Generation: gen, Sealed: true,
			Category: CatDiscount, Featured: featured.CanonicalLabel(),
			Rows: rel,
		}
		if !bytes.Equal(body, marshalResp(t, want)) {
			t.Errorf("daemon relfreq != WeakStartConversionDrivers:\n got %s\nwant %s", body, marshalResp(t, want))
		}
	})

	t.Run("drilldown", func(t *testing.T) {
		v := url.Values{"row": {intentWeak.Label()}, "col": {resDim.Label()}, "limit": {"3"}}
		var got server.DrillDownResponse
		body := fetch(t, base+"/v1/drilldown?"+v.Encode(), &got)
		cell := ix.DrillDown(intentWeak, resDim)
		want := server.DrillDownResponse{
			Generation: gen, Sealed: true,
			Row: intentWeak.CanonicalLabel(), Col: resDim.CanonicalLabel(),
			Count: len(cell), Truncated: len(cell) > 3,
		}
		if len(cell) > 3 {
			cell = cell[:3]
		}
		for _, d := range cell {
			concepts := make([]server.ConceptJSON, len(d.Concepts))
			for j, c := range d.Concepts {
				concepts[j] = server.ConceptJSON{Category: c.Category, Canonical: c.Canonical}
			}
			want.Docs = append(want.Docs, server.DocumentJSON{
				ID: d.ID, Fields: d.Fields, Time: d.Time, Concepts: concepts,
			})
		}
		if !bytes.Equal(body, marshalResp(t, want)) {
			t.Errorf("daemon drilldown != direct DrillDown:\n got %s\nwant %s", body, marshalResp(t, want))
		}
	})

	t.Run("trend", func(t *testing.T) {
		v := url.Values{"dim": {resDim.Label()}}
		var got server.TrendResponse
		body := fetch(t, base+"/v1/trend?"+v.Encode(), &got)
		pts := ix.Trend(resDim)
		want := server.TrendResponse{
			Generation: gen, Sealed: true, Dim: resDim.CanonicalLabel(),
			Points: pts,
			Slope:  mining.TrendSlope(pts),
		}
		if !bytes.Equal(body, marshalResp(t, want)) {
			t.Errorf("daemon trend != direct Trend:\n got %s\nwant %s", body, marshalResp(t, want))
		}
		if len(got.Points) != cfg.Analysis.World.Days {
			t.Errorf("trend has %d buckets, want one per day (%d)", len(got.Points), cfg.Analysis.World.Days)
		}
	})

	t.Run("concepts", func(t *testing.T) {
		var got server.ConceptsResponse
		body := fetch(t, base+"/v1/concepts?category="+url.QueryEscape(CatVehicle), &got)
		want := server.ConceptsResponse{
			Generation: gen, Sealed: true, Category: CatVehicle,
			Values: ix.ConceptsInCategory(CatVehicle),
		}
		if !bytes.Equal(body, marshalResp(t, want)) {
			t.Errorf("daemon concepts != direct ConceptsInCategory:\n got %s\nwant %s", body, marshalResp(t, want))
		}
		if len(got.Values) == 0 {
			t.Error("no vehicle concepts surfaced — annotation path broken in serving mode")
		}
		var gotF server.ConceptsResponse
		fetch(t, base+"/v1/concepts?field=outcome", &gotF)
		if len(gotF.Values) != 3 {
			t.Errorf("outcome field values = %v, want the three outcomes", gotF.Values)
		}
	})

	t.Run("cached responses identical", func(t *testing.T) {
		first := fetch(t, countURL, nil)
		hits0, _ := s.CacheStats()
		second := fetch(t, countURL, nil)
		hits1, _ := s.CacheStats()
		if !bytes.Equal(first, second) {
			t.Errorf("cached response differs:\n%s\n%s", first, second)
		}
		if hits1 != hits0+1 {
			t.Errorf("repeat query did not hit the cache: hits %d → %d", hits0, hits1)
		}
	})

	t.Run("statsz exposes pipeline stages", func(t *testing.T) {
		var got server.StatszResponse
		fetch(t, base+"/statsz", &got)
		if len(got.Pipeline) != 3 {
			t.Fatalf("statsz pipeline = %+v, want the three stages", got.Pipeline)
		}
		names := []string{got.Pipeline[0].Name, got.Pipeline[1].Name, got.Pipeline[2].Name}
		if names[0] != "transcribe" || names[1] != "link" || names[2] != "annotate" {
			t.Errorf("stage names %v", names)
		}
		for _, st := range got.Pipeline {
			if st.Out != uint64(totalCalls) {
				t.Errorf("stage %s passed %d items, want %d", st.Name, st.Out, totalCalls)
			}
		}
	})
}

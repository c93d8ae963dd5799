package report

import (
	"strings"
	"testing"

	"bivoc/internal/synth"
)

func world(t *testing.T) (*synth.CarRentalWorld, []synth.Call) {
	t.Helper()
	cfg := synth.DefaultCarRentalConfig()
	cfg.NumAgents = 15
	cfg.NumCustomers = 60
	cfg.CallsPerDay = 100
	w, err := synth.NewCarRentalWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w, w.GenerateCalls(0, 4)
}

func TestAgentKPIsConsistency(t *testing.T) {
	w, calls := world(t)
	kpis := AgentKPIs(w, calls)
	if len(kpis) != len(w.Agents) {
		t.Fatalf("%d KPIs for %d agents", len(kpis), len(w.Agents))
	}
	totalCalls, totalRes := 0, 0
	for _, k := range kpis {
		totalCalls += k.Calls
		totalRes += k.Reservations
		if k.SalesCalls+k.ServiceCalls != k.Calls {
			t.Errorf("agent %s: %d+%d != %d", k.AgentID, k.SalesCalls, k.ServiceCalls, k.Calls)
		}
		if k.Conversion < 0 || k.Conversion > 1 {
			t.Errorf("agent %s conversion %v", k.AgentID, k.Conversion)
		}
		if k.Calls > 0 && k.AvgHandleTimeSec <= 0 {
			t.Errorf("agent %s AHT %v", k.AgentID, k.AvgHandleTimeSec)
		}
	}
	if totalCalls != len(calls) {
		t.Errorf("KPI calls %d != %d", totalCalls, len(calls))
	}
	wantRes := 0
	for _, c := range calls {
		if c.Outcome == synth.OutcomeReservation {
			wantRes++
		}
	}
	if totalRes != wantRes {
		t.Errorf("KPI reservations %d != %d", totalRes, wantRes)
	}
}

func TestHandleTimePlausible(t *testing.T) {
	_, calls := world(t)
	for _, c := range calls {
		if c.HandleTimeSec < 30 || c.HandleTimeSec > 900 {
			t.Fatalf("handle time %ds implausible for %s", c.HandleTimeSec, c.ID)
		}
	}
}

func TestHandleTimeReflectsComplexity(t *testing.T) {
	_, calls := world(t)
	var discTotal, plainTotal, discN, plainN int
	for _, c := range calls {
		if c.Intent == synth.IntentService {
			continue
		}
		if c.UsedDisc {
			discTotal += c.HandleTimeSec
			discN++
		} else {
			plainTotal += c.HandleTimeSec
			plainN++
		}
	}
	if discN == 0 || plainN == 0 {
		t.Skip("degenerate sample")
	}
	if float64(discTotal)/float64(discN) <= float64(plainTotal)/float64(plainN) {
		t.Error("discount negotiation should lengthen handle time on average")
	}
}

func TestCenterKPIs(t *testing.T) {
	_, calls := world(t)
	k := CenterKPIs(calls)
	if k.Calls != len(calls) {
		t.Errorf("calls = %d", k.Calls)
	}
	if k.SalesCalls+k.ServiceCalls != k.Calls {
		t.Error("call split inconsistent")
	}
	if k.AvgHandleTimeSec <= 0 {
		t.Error("AHT missing")
	}
	dayTotal := 0
	for _, v := range k.DailyVolume {
		dayTotal += v
	}
	if dayTotal != k.Calls {
		t.Error("daily volume does not sum to calls")
	}
}

func TestCenterKPIsEmpty(t *testing.T) {
	k := CenterKPIs(nil)
	if k.Calls != 0 || k.AvgHandleTimeSec != 0 || k.Conversion != 0 {
		t.Errorf("empty KPIs: %+v", k)
	}
}

func TestRenderAgentDashboard(t *testing.T) {
	w, calls := world(t)
	kpis := AgentKPIs(w, calls)
	out := RenderAgentDashboard(kpis, 3)
	if !strings.Contains(out, "top performers") || !strings.Contains(out, "bottom performers") {
		t.Errorf("dashboard sections missing:\n%s", out)
	}
	if !strings.Contains(out, "AHT") {
		t.Error("AHT column missing")
	}
	// topN=0 renders everyone without the bottom section.
	all := RenderAgentDashboard(kpis, 0)
	if strings.Contains(all, "bottom performers") {
		t.Error("full render should not split")
	}
}

func TestRenderCenterDashboard(t *testing.T) {
	_, calls := world(t)
	out := RenderCenterDashboard(CenterKPIs(calls))
	for _, want := range []string{"calls handled", "bookings", "avg handle time", "daily volume"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

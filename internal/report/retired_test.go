package report

// Nothing shipped reaches what this file declares (the root package's
// TestEveryInternalFunctionIsReachable). It left report.go
// in PR 24 and stays, as test code only, because the tests below pin it
// and a PR may retire only a few tests of the floor. It is a reference
// for nothing: delete each declaration with its tests.

import (
	"fmt"
	"strings"
	"testing"
)

// TrainingComparison renders the trained-vs-control KPI contrast the
// §V.C experiment reports.
func TrainingComparison(kpis []AgentKPI) string {
	var tConv, cConv, tVal, cVal float64
	var tN, cN int
	for _, k := range kpis {
		if k.SalesCalls == 0 {
			continue
		}
		if k.Trained {
			tConv += k.Conversion
			tVal += k.ValueRate
			tN++
		} else {
			cConv += k.Conversion
			cVal += k.ValueRate
			cN++
		}
	}
	var b strings.Builder
	if tN > 0 && cN > 0 {
		fmt.Fprintf(&b, "trained (%d agents): conversion %.1f%%, value-selling %.1f%%\n",
			tN, 100*tConv/float64(tN), 100*tVal/float64(tN))
		fmt.Fprintf(&b, "control (%d agents): conversion %.1f%%, value-selling %.1f%%\n",
			cN, 100*cConv/float64(cN), 100*cVal/float64(cN))
	}
	return b.String()
}

func TestTrainingComparison(t *testing.T) {
	w, _ := world(t)
	w.TrainAgents(5)
	calls := w.GenerateCalls(10, 4)
	kpis := AgentKPIs(w, calls)
	out := TrainingComparison(kpis)
	if !strings.Contains(out, "trained (5 agents)") {
		t.Errorf("comparison wrong:\n%s", out)
	}
	// No trained agents → empty output.
	w2, calls2 := world(t)
	if got := TrainingComparison(AgentKPIs(w2, calls2)); got != "" {
		t.Errorf("untrained comparison should be empty, got %q", got)
	}
}

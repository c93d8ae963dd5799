// Package report renders the contact-centre dashboards the paper's
// background section describes (§II): "BI systems are typically used to
// monitor business conditions, track Key Performance Indicators (KPIs),
// aid as decision support systems ... like real time dashboards,
// interactive OLAP tools or static reports", and commercial tools
// "provide analysis tools for measuring and monitoring agent
// performance in terms of average handle time" etc.
//
// The package computes per-agent and centre-level KPIs from a generated
// engagement and renders plain-text dashboards. BIVoC's thesis is that
// these operational KPIs alone miss the business story; the mining
// layer (internal/mining) supplies that. Keeping both views makes the
// contrast concrete.
package report

import (
	"fmt"
	"sort"
	"strings"

	"bivoc/internal/synth"
)

// AgentKPI aggregates one agent's performance over a call window.
type AgentKPI struct {
	AgentID string
	Name    string
	Trained bool
	// Calls handled, split by type.
	Calls, SalesCalls, ServiceCalls int
	Reservations                    int
	// AvgHandleTimeSec is the mean handle time over all calls.
	AvgHandleTimeSec float64
	// Conversion is reservations / sales calls.
	Conversion float64
	// ValueRate / DiscountRate are the fractions of sales calls where
	// the behaviour occurred.
	ValueRate, DiscountRate float64
}

// AgentKPIs computes per-agent KPIs over the given calls.
func AgentKPIs(world *synth.CarRentalWorld, calls []synth.Call) []AgentKPI {
	kpis := make([]AgentKPI, len(world.Agents))
	var handle = make([]int, len(world.Agents))
	var valueN, discN = make([]int, len(world.Agents)), make([]int, len(world.Agents))
	for i, a := range world.Agents {
		kpis[i] = AgentKPI{AgentID: a.ID, Name: a.Name, Trained: a.Trained}
	}
	for _, c := range calls {
		k := &kpis[c.AgentIdx]
		k.Calls++
		handle[c.AgentIdx] += c.HandleTimeSec
		if c.Intent == synth.IntentService {
			k.ServiceCalls++
			continue
		}
		k.SalesCalls++
		if c.Outcome == synth.OutcomeReservation {
			k.Reservations++
		}
		if c.UsedValue {
			valueN[c.AgentIdx]++
		}
		if c.UsedDisc {
			discN[c.AgentIdx]++
		}
	}
	for i := range kpis {
		k := &kpis[i]
		if k.Calls > 0 {
			k.AvgHandleTimeSec = float64(handle[i]) / float64(k.Calls)
		}
		if k.SalesCalls > 0 {
			k.Conversion = float64(k.Reservations) / float64(k.SalesCalls)
			k.ValueRate = float64(valueN[i]) / float64(k.SalesCalls)
			k.DiscountRate = float64(discN[i]) / float64(k.SalesCalls)
		}
	}
	return kpis
}

// CenterKPI aggregates the whole centre.
type CenterKPI struct {
	Calls, SalesCalls, ServiceCalls, Reservations int
	AvgHandleTimeSec                              float64
	Conversion                                    float64
	// DailyVolume maps day → calls.
	DailyVolume map[int]int
}

// CenterKPIs computes centre-level KPIs.
func CenterKPIs(calls []synth.Call) CenterKPI {
	out := CenterKPI{DailyVolume: make(map[int]int)}
	totalHandle := 0
	for _, c := range calls {
		out.Calls++
		out.DailyVolume[c.Day]++
		totalHandle += c.HandleTimeSec
		if c.Intent == synth.IntentService {
			out.ServiceCalls++
			continue
		}
		out.SalesCalls++
		if c.Outcome == synth.OutcomeReservation {
			out.Reservations++
		}
	}
	if out.Calls > 0 {
		out.AvgHandleTimeSec = float64(totalHandle) / float64(out.Calls)
	}
	if out.SalesCalls > 0 {
		out.Conversion = float64(out.Reservations) / float64(out.SalesCalls)
	}
	return out
}

// RenderAgentDashboard renders the top/bottom agents by conversion with
// their operational KPIs (what a NICE/VERINT-style monitoring tool
// shows; §II).
func RenderAgentDashboard(kpis []AgentKPI, topN int) string {
	ranked := make([]AgentKPI, 0, len(kpis))
	for _, k := range kpis {
		if k.SalesCalls > 0 {
			ranked = append(ranked, k)
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].Conversion != ranked[j].Conversion {
			return ranked[i].Conversion > ranked[j].Conversion
		}
		return ranked[i].AgentID < ranked[j].AgentID
	})
	if topN <= 0 || topN > len(ranked) {
		topN = len(ranked)
	}
	var b strings.Builder
	header := fmt.Sprintf("%-5s %-20s %6s %6s %7s %7s %7s %8s %s\n",
		"agent", "name", "calls", "conv%", "value%", "disc%", "AHT(s)", "bookings", "trained")
	b.WriteString(header)
	line := func(k AgentKPI) {
		trained := ""
		if k.Trained {
			trained = "yes"
		}
		fmt.Fprintf(&b, "%-5s %-20s %6d %5.0f%% %6.0f%% %6.0f%% %7.0f %8d %s\n",
			k.AgentID, k.Name, k.Calls, 100*k.Conversion, 100*k.ValueRate,
			100*k.DiscountRate, k.AvgHandleTimeSec, k.Reservations, trained)
	}
	b.WriteString("— top performers —\n")
	for i := 0; i < topN && i < len(ranked); i++ {
		line(ranked[i])
	}
	if len(ranked) > topN {
		b.WriteString("— bottom performers —\n")
		for i := len(ranked) - topN; i < len(ranked); i++ {
			line(ranked[i])
		}
	}
	return b.String()
}

// RenderCenterDashboard renders centre-level KPIs with a daily volume
// sparkline.
func RenderCenterDashboard(k CenterKPI) string {
	var b strings.Builder
	fmt.Fprintf(&b, "calls handled    %d (%d sales, %d service)\n", k.Calls, k.SalesCalls, k.ServiceCalls)
	fmt.Fprintf(&b, "bookings         %d (%.1f%% conversion)\n", k.Reservations, 100*k.Conversion)
	fmt.Fprintf(&b, "avg handle time  %.0fs\n", k.AvgHandleTimeSec)
	days := make([]int, 0, len(k.DailyVolume))
	for d := range k.DailyVolume {
		days = append(days, d)
	}
	sort.Ints(days)
	max := 0
	for _, d := range days {
		if k.DailyVolume[d] > max {
			max = k.DailyVolume[d]
		}
	}
	if max > 0 {
		b.WriteString("daily volume     ")
		marks := []rune("▁▂▃▄▅▆▇█")
		for _, d := range days {
			idx := k.DailyVolume[d] * (len(marks) - 1) / max
			b.WriteRune(marks[idx])
		}
		b.WriteString("\n")
	}
	return b.String()
}

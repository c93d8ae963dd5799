package main

import "fmt"

// row is one workload × end-to-end metric of a comparison.
type row struct {
	Workload, Metric, Unit string
	Base, New, Bound       float64
	// Worse is the change in the metric's bad direction as a share of
	// the base: positive means the new side is worse.
	Worse   float64
	Verdict string // improved | within | regressed | unresolved
}

// verdict judges one metric. A difference counts only when it exceeds
// the bound; when the metric comes off the windows and either side's own
// windows spread wider than the bound, the pair cannot tell a change from
// noise and says so.
func verdict(d metricDef, base, changed, spreadBase, spreadNew float64) (worse float64, v string) {
	worse = (changed - base) / base
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case d.Windowed && max(spreadBase, spreadNew) > d.Bound:
		return worse, "unresolved"
	case worse > d.Bound:
		return worse, "regressed"
	case worse < -d.Bound:
		return worse, "improved"
	}
	return worse, "within"
}

func compareSuites(base, changed *suite) []row {
	var rows []row
	for _, w := range workloadDefs {
		a, b := base.Workloads[w.Name], changed.Workloads[w.Name]
		if a == nil || b == nil {
			continue
		}
		for _, d := range endToEnd {
			av, aok := a.Metrics[d.Name]
			bv, bok := b.Metrics[d.Name]
			if !aok || !bok {
				continue
			}
			worse, v := verdict(d, av.Value, bv.Value, a.WindowSpread, b.WindowSpread)
			rows = append(rows, row{w.Name, d.Name, d.Unit, av.Value, bv.Value, d.Bound, worse, v})
		}
	}
	return rows
}

// printComparison prints one row per workload and metric and reports
// whether no row regressed.
func printComparison(rows []row) bool {
	ok := true
	fmt.Printf("%-13s %-13s %12s %12s %-5s %9s %6s  %s\n", "workload", "metric", "base", "new", "unit", "new/base", "bound", "verdict")
	for _, r := range rows {
		fmt.Printf("%-13s %-13s %12.4f %12.4f %-5s %9.4f %6.2f  %s\n", r.Workload, r.Metric, r.Base, r.New, r.Unit, r.New/r.Base, r.Bound, r.Verdict)
		ok = ok && r.Verdict != "regressed"
	}
	return ok
}

// Command experiments regenerates every table and figure of the BIVoC
// paper's evaluation, printing paper-reported versus measured values.
//
// Usage:
//
//	experiments [-exp all|table1|secondpass|table2|table3|table4|uplift|churn|fig4] [-scale small|full] [-seed N]
//
// The "small" scale keeps ASR-heavy experiments laptop-fast; "full"
// uses larger corpora for tighter estimates.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"bivoc"
	"bivoc/internal/core"
	"bivoc/internal/mining"
	"bivoc/internal/synth"
)

func main() {
	exp := flag.String("exp", "all", "experiment id: all, table1, secondpass, table2, table3, table4, uplift, churn, fig4")
	scale := flag.String("scale", "small", "corpus scale: small or full")
	seed := flag.Uint64("seed", 2009, "master random seed")
	flag.Parse()

	full := *scale == "full"
	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("\n=== %s ===\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", name, err)
			os.Exit(1)
		}
	}
	analysis := analyses(full, *seed)

	run("table1", func() error { return runTable1(full, *seed) })
	run("secondpass", func() error { return runSecondPass(full, *seed) })
	run("table2", func() error { return runTable2(analysis) })
	run("table3", func() error { return runTable3(analysis) })
	run("table4", func() error { return runTable4(analysis) })
	run("uplift", func() error { return runUplift(full, *seed) })
	run("churn", func() error { return runChurn(full, *seed) })
	run("fig4", func() error { return runFig4(full, *seed, analysis) })
}

// analysisFn returns the run's call analysis over reference (false) or
// ASR (true) transcripts.
type analysisFn func(useASR bool) (*bivoc.CallAnalysis, error)

// analyses builds each call analysis once per run: table2, table3, table4
// and fig4 read the reference one, table3 and table4 the ASR one.
func analyses(full bool, seed uint64) analysisFn {
	built := map[bool]*bivoc.CallAnalysis{}
	return func(useASR bool) (*bivoc.CallAnalysis, error) {
		if ca, ok := built[useASR]; ok {
			return ca, nil
		}
		ca, err := buildAnalysis(full, seed, useASR)
		built[useASR] = ca
		return ca, err
	}
}

func runTable1(full bool, seed uint64) error {
	cfg := bivoc.DefaultASRExperimentConfig()
	cfg.World.Seed = seed
	cfg.NumCalls = 120
	if full {
		cfg.NumCalls = 400
	}
	res, err := bivoc.RunASRExperiment(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Table I — ASR performance (word error rate, %)")
	fmt.Printf("%-16s %8s %10s\n", "Entity", "Paper", "Measured")
	fmt.Printf("%-16s %8s %9.1f%%\n", "Entire Speech", "45%", 100*res.Overall)
	fmt.Printf("%-16s %8s %9.1f%%\n", "Names", "65%", 100*res.Names)
	fmt.Printf("%-16s %8s %9.1f%%\n", "Numbers", "45%", 100*res.Numbers)
	fmt.Printf("(%d utterances, %d reference words)\n", res.Utterances, res.RefWords)
	return nil
}

func runSecondPass(full bool, seed uint64) error {
	cfg := bivoc.DefaultSecondPassConfig()
	cfg.World.Seed = seed
	cfg.NumCalls = 120
	if full {
		cfg.NumCalls = 400
	}
	res, err := bivoc.RunSecondPassExperiment(cfg)
	if err != nil {
		return err
	}
	fmt.Println("§IV.A.1 — constrained second-pass name recognition")
	fmt.Printf("%-28s %8s %10s\n", "", "Paper", "Measured")
	fmt.Printf("%-28s %8s %9.1f%%\n", "Name accuracy, first pass", "—", 100*res.FirstPassNameAcc)
	fmt.Printf("%-28s %8s %9.1f%%\n", "Name accuracy, second pass", "—", 100*res.SecondPassNameAcc)
	fmt.Printf("%-28s %8s %+9.1f%%\n", "Absolute improvement", "+10%", 100*res.Improvement)
	fmt.Printf("(second pass applied to %d of %d calls with confident links)\n", res.LinkedCalls, res.Calls)
	return nil
}

func buildAnalysis(full bool, seed uint64, useASR bool) (*bivoc.CallAnalysis, error) {
	cfg := bivoc.DefaultCallAnalysisConfig()
	cfg.World.Seed = seed
	cfg.UseASR = useASR
	if useASR {
		cfg.World.CallsPerDay = 60
		cfg.World.Days = 3
		if full {
			cfg.World.CallsPerDay = 150
			cfg.World.Days = 6
		}
	} else {
		cfg.World.CallsPerDay = 400
		cfg.World.Days = 10
		if full {
			cfg.World.CallsPerDay = 1800
			cfg.World.Days = 10
		}
	}
	return bivoc.RunCallAnalysis(cfg)
}

func runTable2(analysis analysisFn) error {
	ca, err := analysis(false)
	if err != nil {
		return err
	}
	t2 := ca.LocationVehicleTable()
	fmt.Println("Table II — two-dimensional association: location × vehicle type")
	fmt.Println("(the paper presents the empty matrix; cells below are joint counts")
	fmt.Println(" with the interval-estimated association index in brackets)")
	fmt.Printf("%-14s", "")
	for _, col := range t2.Cols {
		fmt.Printf("%14s", strings.TrimSuffix(col.Label(), "[vehicle type]"))
	}
	fmt.Println()
	for i, row := range t2.Rows {
		fmt.Printf("%-14s", strings.TrimSuffix(row.Label(), "[place]"))
		for j := range t2.Cols {
			c := t2.Cells[i][j]
			fmt.Printf("%8d[%4.2f]", c.Ncell, c.LowerIndex)
		}
		fmt.Println()
	}
	top := t2.StrongestCells()
	if len(top) > 0 {
		fmt.Printf("strongest association: %s × %s (lower index %.2f)\n",
			top[0].Row.Label(), top[0].Col.Label(), top[0].LowerIndex)
	}
	return nil
}

func runTable3(analysis analysisFn) error {
	ca, err := analysis(false)
	if err != nil {
		return err
	}
	t3 := ca.IntentOutcomeTable()
	fmt.Println("Table III — customer intention vs pick-up result (reference transcripts)")
	printOutcomeTable(t3, [][2]string{{"63%", "37%"}, {"32%", "68%"}})

	caASR, err := analysis(true)
	if err != nil {
		return err
	}
	fmt.Println("\nTable III on ASR transcripts (45% WER operating point)")
	printOutcomeTable(caASR.IntentOutcomeTable(), [][2]string{{"63%", "37%"}, {"32%", "68%"}})
	return nil
}

func runTable4(analysis analysisFn) error {
	ca, err := analysis(false)
	if err != nil {
		return err
	}
	t4 := ca.AgentUtteranceTable()
	fmt.Println("Table IV — agent utterance vs customer objection result (reference transcripts)")
	printOutcomeTable(t4, [][2]string{{"59%", "41%"}, {"72%", "28%"}})

	caASR, err := analysis(true)
	if err != nil {
		return err
	}
	fmt.Println("\nTable IV on ASR transcripts (45% WER operating point)")
	printOutcomeTable(caASR.AgentUtteranceTable(), [][2]string{{"59%", "41%"}, {"72%", "28%"}})
	return nil
}

func printOutcomeTable(t *bivoc.AssocTable, paper [][2]string) {
	fmt.Printf("%-24s %22s %22s\n", "", "reservation", "unbooked")
	for i, row := range t.Rows {
		label := row.Label()
		fmt.Printf("%-24s", label)
		for j := range t.Cols {
			cell := t.Cells[i][j]
			fmt.Printf("  paper %4s meas %4.0f%%", paper[i][j], 100*cell.RowShare)
		}
		fmt.Println()
	}
}

func runUplift(full bool, seed uint64) error {
	cfg := bivoc.DefaultTrainingConfig()
	cfg.World.Seed = seed
	if !full {
		cfg.World.CallsPerDay = 360
		cfg.BeforeDays = 20
		cfg.AfterDays = 20
	} else {
		cfg.World.CallsPerDay = 1800
		cfg.BeforeDays = 30
		cfg.AfterDays = 30
	}
	res, err := bivoc.RunTrainingExperiment(cfg)
	if err != nil {
		return err
	}
	fmt.Println("§V.C — agent training uplift (20 trained vs 70 control agents)")
	fmt.Printf("%-34s %8s %10s\n", "", "Paper", "Measured")
	fmt.Printf("%-34s %8s %+9.1f%%\n", "Conversion uplift after training", "+3%", 100*res.Uplift)
	fmt.Printf("%-34s %8s %+9.1f%%\n", "Group gap before training", "~0%", 100*res.BeforeGap)
	fmt.Printf("%-34s %8s %10.4f\n", "t-test p-value (one-sided)", "0.0675", res.TTest.POneSided)
	fmt.Printf("trained: %.1f%% → %.1f%%   control: %.1f%% → %.1f%%\n",
		100*res.TrainedBefore, 100*res.TrainedAfter, 100*res.ControlBefore, 100*res.ControlAfter)
	return nil
}

func runChurn(full bool, seed uint64) error {
	cfg := bivoc.DefaultChurnExperimentConfig()
	cfg.World.Seed = seed
	if full {
		cfg.World.NumCustomers = 4000
		cfg.World.Emails = 9000
		cfg.World.SMS = 20000
	}
	res, err := bivoc.RunChurnExperiment(cfg)
	if err != nil {
		return err
	}
	fmt.Println("§VI — churn prediction from customer emails")
	fmt.Printf("%-34s %8s %10s\n", "", "Paper", "Measured")
	fmt.Printf("%-34s %8s %9.1f%%\n", "Emails unlinkable", "18%", 100*res.UnlinkableRate)
	fmt.Printf("%-34s %8s %9.1f%%\n", "Churner detection (recall)", "53.6%", 100*res.ChurnerRecall)
	fmt.Printf("%-34s %8s %10d\n", "Messages processed", "47460", res.Messages)
	fmt.Printf("discarded: %d spam, %d non-english, %d empty; linked %d (%.1f%% to the true author)\n",
		res.Spam, res.NonEnglish, res.Empty, res.Linked, 100*res.LinkCorrect)
	fmt.Printf("eval month: %d churners seen, %d flagged; message-level TP/FP/TN/FN = %d/%d/%d/%d\n",
		res.ChurnersInEval, res.ChurnersFlagged, res.TP, res.FP, res.TN, res.FN)
	fmt.Printf("top churn indicators: %s\n", strings.Join(res.TopFeatures[:min(8, len(res.TopFeatures))], ", "))
	fmt.Printf("mean sentiment: churners %+.2f vs stayers %+.2f (§III: dissatisfaction marks churn propensity)\n",
		res.SentimentChurners, res.SentimentStayers)
	return nil
}

func runFig4(full bool, seed uint64, analysis analysisFn) error {
	// Part 1 — the paper's actual Figure 4 content: competitor mentions
	// in emails × the category assigned to the email.
	ecfg := core.DefaultEmailAssociationConfig()
	ecfg.World.Seed = seed
	if full {
		ecfg.World.Emails = 9000
	}
	ea, err := core.RunEmailCategoryAnalysis(ecfg)
	if err != nil {
		return err
	}
	fmt.Println("Figure 4 — competitor mentions × email category")
	fmt.Print(ea.Table.Render())
	strongest := ea.Table.StrongestCells()
	if len(strongest) > 0 && strongest[0].Ncell > 0 {
		top := strongest[0]
		fmt.Printf("strongest association: %s × %s (lower index %.2f, %d emails)\n",
			top.Row.Label(), top.Col.Label(), top.LowerIndex, top.Ncell)
		docs := ea.Index.DrillDown(top.Row, top.Col)
		for i, d := range docs {
			if i >= 2 {
				break
			}
			fmt.Printf("  drill: %s month=%d\n", d.ID, d.Time)
		}
	}

	// Part 2 — the same drill-down machinery on the call corpus.
	ca, err := analysis(false)
	if err != nil {
		return err
	}
	fmt.Println("\nFigure 4 (call view) — association analysis drill-down")
	rows := []bivoc.Dim{
		bivoc.ConceptDim("customer intention", "weak start"),
	}
	cols := []bivoc.Dim{
		bivoc.FieldDim("outcome", synth.OutcomeReservation),
		bivoc.FieldDim("outcome", synth.OutcomeUnbooked),
	}
	tbl := ca.Index.Associate(rows, cols, mining.DefaultConfidence)
	fmt.Print(tbl.Render())
	docs := ca.Index.DrillDown(rows[0], cols[0])
	fmt.Printf("\ndrill-down: weak start × reservation → %d calls; first 3:\n", len(docs))
	for i, d := range docs {
		if i >= 3 {
			break
		}
		fmt.Printf("  %s  agent=%s  concepts=%s\n", d.ID, d.Fields["agent"], conceptSummary(d))
	}
	rel := ca.WeakStartConversionDrivers()
	for _, r := range rel {
		fmt.Printf("relevancy: %q over-represented in converted calls ×%.2f (%d/%d vs %d/%d)\n",
			r.Concept, r.Ratio, r.InSubset, r.SubsetSize, r.InAll, r.N)
	}
	return nil
}

func conceptSummary(d mining.Document) string {
	var parts []string
	for _, c := range d.Concepts {
		parts = append(parts, c.Canonical+"["+c.Category+"]")
	}
	if len(parts) > 4 {
		parts = parts[:4]
	}
	return strings.Join(parts, ", ")
}

// Command bivoc runs the full BIVoC pipeline on a synthetic car-rental
// engagement and prints the business-intelligence reports of §IV.D/§V:
// the intent and agent-utterance association tables, the location ×
// vehicle matrix, relevancy analysis, trends, and a Figure 4-style
// drill-down from a selected cell to individual calls.
//
// Usage:
//
//	bivoc [-asr] [-seed N] [-calls N] [-days N] [-drill row,col]
//	      [-stream] [-workers N]
//	      [-retries N] [-retry-delay D] [-stage-timeout D]
//	      [-max-dead-letters N] [-fault-rate P]
//
// With -stream the run goes through the staged concurrent pipeline
// (transcribe → link → annotate → index) and live per-stage stats are
// printed to stderr while the mining index is queried mid-flight — the
// query-while-indexing view a production deployment would expose.
//
// The fault-tolerance flags mirror a production ingest: -retries and
// -retry-delay re-run transiently failing stage attempts with capped,
// deterministically jittered backoff; -stage-timeout bounds each
// attempt; -max-dead-letters lets that many calls fail permanently
// without aborting the run (they are reported at the end instead).
// -fault-rate injects deterministic transient faults into the annotate
// stage so the retry machinery can be watched live — the final reports
// stay byte-identical to a fault-free run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"bivoc"
	"bivoc/internal/mining"
	"bivoc/internal/report"
	"bivoc/internal/rng"
	"bivoc/internal/synth"
)

func main() {
	useASR := flag.Bool("asr", false, "transcribe calls with the ASR substrate (slower, noisier)")
	useNotes := flag.Bool("notes", false, "analyze agent wrap-up notes instead of transcripts")
	seed := flag.Uint64("seed", 2009, "master random seed")
	calls := flag.Int("calls", 400, "calls per day")
	days := flag.Int("days", 10, "days of traffic")
	drill := flag.String("drill", "weak start,reservation", "drill-down cell: intent,outcome")
	stream := flag.Bool("stream", false, "print live per-stage pipeline stats and mid-flight index queries")
	workers := flag.Int("workers", 0, "transcribe-stage worker count; link and annotate run single (0 = GOMAXPROCS, 1 = sequential)")
	retries := flag.Int("retries", 1, "max attempts per call per stage (1 = no retry)")
	retryDelay := flag.Duration("retry-delay", time.Millisecond, "base backoff before a retry (doubles per attempt, jittered)")
	stageTimeout := flag.Duration("stage-timeout", 0, "per-attempt stage timeout (0 = unbounded)")
	maxDead := flag.Int("max-dead-letters", 0, "calls allowed to fail permanently before the run aborts (0 = fail fast)")
	faultRate := flag.Float64("fault-rate", 0, "inject transient faults into this fraction of annotate attempts (demo)")
	flag.Parse()

	cfg := bivoc.DefaultCallAnalysisConfig()
	cfg.World.Seed = *seed
	cfg.World.CallsPerDay = *calls
	cfg.World.Days = *days
	cfg.UseASR = *useASR
	cfg.UseNotes = *useNotes
	cfg.Workers = *workers
	if *useASR && *calls > 100 {
		fmt.Fprintln(os.Stderr, "note: ASR mode decodes every call; consider -calls 60")
	}
	if *stream {
		cfg.Monitor = liveStatsMonitor
	}
	cfg.FaultTolerance = bivoc.FaultTolerance{
		Retry: bivoc.RetryPolicy{
			MaxAttempts: *retries,
			BaseDelay:   *retryDelay,
			Jitter:      0.5,
		},
		Timeout:        *stageTimeout,
		MaxDeadLetters: *maxDead,
	}
	if *faultRate > 0 {
		cfg.FaultInject = demoFaults(*seed, *faultRate)
	}

	ca, err := bivoc.RunCallAnalysis(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bivoc: %v\n", err)
		os.Exit(1)
	}
	if n := len(ca.DeadLetters); n > 0 {
		fmt.Fprintf(os.Stderr, "dead letters: %d calls failed permanently and were excluded from the reports\n", n)
		for i, dl := range ca.DeadLetters {
			if i >= 5 {
				fmt.Fprintf(os.Stderr, "  ... and %d more\n", n-5)
				break
			}
			fmt.Fprintf(os.Stderr, "  %s died in stage %s after %d attempt(s): %v\n", dl.Key, dl.Stage, dl.Attempts, dl.Err)
		}
	}
	fmt.Printf("analyzed %d calls across %d agents (channel: %s)\n\n",
		ca.Index.Len(), len(ca.World.Agents), channelKind(cfg.UseASR, cfg.UseNotes))

	fmt.Println("— contact-centre KPIs (the operational view BIVoC extends) —")
	fmt.Print(report.RenderCenterDashboard(report.CenterKPIs(ca.World.Calls)))
	fmt.Println()
	fmt.Print(report.RenderAgentDashboard(report.AgentKPIs(ca.World, ca.World.Calls), 3))
	fmt.Println()

	fmt.Println("— customer intention × outcome (Table III) —")
	fmt.Print(ca.IntentOutcomeTable().Render())

	fmt.Println("\n— agent utterance × outcome (Table IV) —")
	fmt.Print(ca.AgentUtteranceTable().Render())

	fmt.Println("\n— revenue rollup from the structured side (booking cost by vehicle) —")
	resTab := ca.World.DB.MustTable("reservations")
	agg := resTab.Aggregate("vehicle", "cost")
	for _, vt := range synth.VehicleTypes() {
		st := agg[vt]
		fmt.Printf("  %-12s bookings=%4d  total=$%-7.0f avg=$%.0f\n", vt, st.Count, st.Sum, st.Mean())
	}

	fmt.Println("\n— location × vehicle type (Table II), strongest associations —")
	for i, cell := range ca.LocationVehicleTable().StrongestCells() {
		if i >= 5 || cell.Ncell == 0 {
			break
		}
		fmt.Printf("  %-26s × %-14s joint=%d lower-index=%.2f\n",
			cell.Row.Label(), cell.Col.Label(), cell.Ncell, cell.LowerIndex)
	}

	fmt.Println("\n— relevancy: concepts over-represented in converted calls —")
	for _, r := range ca.Index.RelativeFrequency("discount", bivoc.FieldDim("outcome", synth.OutcomeReservation)) {
		fmt.Printf("  %-24s ratio %.2f (%d/%d in subset vs %d/%d overall)\n",
			r.Concept, r.Ratio, r.InSubset, r.SubsetSize, r.InAll, r.N)
	}

	fmt.Println("\n— trend: weak-start volume per day —")
	points := ca.Index.Trend(bivoc.ConceptDim("customer intention", "weak start"))
	for _, p := range points {
		fmt.Printf("  day %2d %s (%d)\n", p.Time, strings.Repeat("#", p.Count/5+1), p.Count)
	}
	fmt.Printf("  slope: %+.2f calls/day\n", mining.TrendSlope(points))

	parts := strings.SplitN(*drill, ",", 2)
	if len(parts) == 2 {
		row := bivoc.ConceptDim("customer intention", strings.TrimSpace(parts[0]))
		col := bivoc.FieldDim("outcome", strings.TrimSpace(parts[1]))
		docs := ca.Index.DrillDown(row, col)
		fmt.Printf("\n— drill-down: %s × %s → %d calls (Figure 4 view) —\n", row.Label(), col.Label(), len(docs))
		for i, d := range docs {
			if i >= 5 {
				fmt.Printf("  ... and %d more\n", len(docs)-5)
				break
			}
			fmt.Printf("  %s agent=%s concepts=%s\n", d.ID, d.Fields["agent"], summarize(d))
		}
	}
}

// liveStatsMonitor renders the streaming dashboard: one stderr block per
// tick with stage counters and a live query against the growing index
// (weak-start count and its conversion share so far).
func liveStatsMonitor(m *bivoc.StreamMonitor) {
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	render := func(final bool) {
		tag := "stream"
		if final {
			tag = "stream final"
		}
		fmt.Fprintf(os.Stderr, "—— %s ——\n", tag)
		for _, st := range m.StageStats() {
			fmt.Fprintf(os.Stderr, "  %-10s workers=%d in=%-6d out=%-6d skip=%-4d err=%-3d retry=%-4d dl=%-3d tmo=%-3d queue=%d/%d avg=%s\n",
				st.Name, st.Workers, st.In, st.Out, st.Skipped, st.Errors,
				st.Retries, st.DeadLetters, st.Timeouts,
				st.QueueDepth, st.QueueCap, st.AvgLatency.Round(time.Microsecond))
		}
		live := m.Live()
		weak := bivoc.ConceptDim("customer intention", "weak start")
		converted := live.CountBoth(weak, bivoc.FieldDim("outcome", synth.OutcomeReservation))
		total := live.Count(weak)
		share := 0.0
		if total > 0 {
			share = 100 * float64(converted) / float64(total)
		}
		fmt.Fprintf(os.Stderr, "  indexed=%d weak-start=%d converting=%.0f%% (queried mid-stream)\n",
			live.Len(), total, share)
	}
	for {
		select {
		case <-m.Done():
			render(true)
			return
		case <-tick.C:
			render(false)
		}
	}
}

// demoFaults injects a transient fault into the first annotate attempt
// of a deterministic rate-sized fraction of calls, so the -stream
// dashboard shows the retry counters moving. Keyed by seed and call ID
// — never by wall clock — so the same invocation always flakes the same
// calls and the reports stay byte-identical to a fault-free run.
func demoFaults(seed uint64, rate float64) bivoc.FaultFn {
	r := rng.New(seed).SplitString("demo-faults")
	return func(stage, key string, attempt int) error {
		if stage == "annotate" && attempt == 1 && r.SplitString(key).Float64() < rate {
			return bivoc.Transient(fmt.Errorf("injected demo fault on %s", key))
		}
		return nil
	}
}

func transcriptKind(asr bool) string {
	if asr {
		return "ASR"
	}
	return "reference"
}

func channelKind(asr, notes bool) string {
	if notes {
		return "agent notes"
	}
	return transcriptKind(asr)
}

func summarize(d mining.Document) string {
	var parts []string
	for _, c := range d.Concepts {
		parts = append(parts, c.Canonical)
	}
	if len(parts) > 5 {
		parts = parts[:5]
	}
	return strings.Join(parts, ", ")
}

package core

import (
	"fmt"
	"sort"

	"bivoc/internal/stats"
	"bivoc/internal/synth"
)

// TrainingConfig drives the §V.C agent-training experiment: 90 agents,
// 20 trained on the mined insights, compared against the untrained 70
// over before/after windows.
type TrainingConfig struct {
	World        synth.CarRentalConfig
	TrainedCount int
	// BeforeDays / AfterDays are the lengths of the two observation
	// windows (the paper used two months).
	BeforeDays int
	AfterDays  int
}

// DefaultTrainingConfig returns the paper-shaped configuration at laptop
// scale.
func DefaultTrainingConfig() TrainingConfig {
	cfg := synth.DefaultCarRentalConfig()
	cfg.CallsPerDay = 360
	return TrainingConfig{
		World:        cfg,
		TrainedCount: 20,
		BeforeDays:   20,
		AfterDays:    20,
	}
}

// AgentWindowStats holds one agent's bookings in one window.
type AgentWindowStats struct {
	AgentID      string
	Trained      bool
	Reservations int
	Unbooked     int
}

// ConversionRate returns reservations / (reservations + unbooked).
func (a AgentWindowStats) ConversionRate() float64 {
	total := a.Reservations + a.Unbooked
	if total == 0 {
		return 0
	}
	return float64(a.Reservations) / float64(total)
}

// TrainingResult is the outcome of the experiment.
type TrainingResult struct {
	Before, After []AgentWindowStats
	// Group means of conversion rate per window.
	TrainedBefore, ControlBefore float64
	TrainedAfter, ControlAfter   float64
	// Uplift is (trained after − control after) conversion, in points.
	Uplift float64
	// BeforeGap is the same difference before training (should be ≈0:
	// "Before training the ratios of both groups were comparable").
	BeforeGap float64
	// TTest compares per-agent after-window conversion rates of the
	// trained group against the control group (Welch).
	TTest stats.TTestResult
}

// RunTrainingExperiment generates a before window, trains the first
// TrainedCount agents, generates an after window, and compares the
// groups.
func RunTrainingExperiment(cfg TrainingConfig) (*TrainingResult, error) {
	if cfg.TrainedCount <= 0 || cfg.BeforeDays <= 0 || cfg.AfterDays <= 0 {
		return nil, fmt.Errorf("core: training config needs positive counts")
	}
	world, err := synth.NewCarRentalWorld(cfg.World)
	if err != nil {
		return nil, err
	}
	before := world.GenerateCalls(0, cfg.BeforeDays)
	// Pick the treated group stratified by before-window performance so
	// the groups start out comparable ("Before training the ratios of
	// both groups were comparable", §V.C).
	world.TrainAgentSet(stratifiedPick(windowStats(world, before), cfg.TrainedCount))
	after := world.GenerateCalls(cfg.BeforeDays, cfg.AfterDays)

	res := &TrainingResult{
		Before: windowStats(world, before),
		After:  windowStats(world, after),
	}
	res.TrainedBefore, res.ControlBefore = groupMeans(res.Before)
	res.TrainedAfter, res.ControlAfter = groupMeans(res.After)
	res.Uplift = res.TrainedAfter - res.ControlAfter
	res.BeforeGap = res.TrainedBefore - res.ControlBefore

	var trained, control []float64
	for _, a := range res.After {
		if a.Reservations+a.Unbooked == 0 {
			continue
		}
		if a.Trained {
			trained = append(trained, a.ConversionRate())
		} else {
			control = append(control, a.ConversionRate())
		}
	}
	tt, err := stats.WelchTTest(trained, control)
	if err != nil {
		return nil, fmt.Errorf("core: t-test: %w", err)
	}
	res.TTest = tt
	return res, nil
}

// stratifiedPick sorts agents by before-window conversion and selects n
// spread evenly across the ranking, so the treated group's mean matches
// the population's.
func stratifiedPick(before []AgentWindowStats, n int) []int {
	idx := make([]int, len(before))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ra, rb := before[idx[a]].ConversionRate(), before[idx[b]].ConversionRate()
		if ra != rb {
			return ra < rb
		}
		return idx[a] < idx[b]
	})
	if n > len(idx) {
		n = len(idx)
	}
	picked := make([]int, 0, n)
	if n == 0 {
		return picked
	}
	step := float64(len(idx)) / float64(n)
	for k := 0; k < n; k++ {
		pos := int(step*float64(k) + step/2)
		if pos >= len(idx) {
			pos = len(idx) - 1
		}
		picked = append(picked, idx[pos])
	}
	return picked
}

func windowStats(world *synth.CarRentalWorld, calls []synth.Call) []AgentWindowStats {
	byAgent := make([]AgentWindowStats, len(world.Agents))
	for i, a := range world.Agents {
		byAgent[i] = AgentWindowStats{AgentID: a.ID, Trained: a.Trained}
	}
	for _, c := range calls {
		switch c.Outcome {
		case synth.OutcomeReservation:
			byAgent[c.AgentIdx].Reservations++
		case synth.OutcomeUnbooked:
			byAgent[c.AgentIdx].Unbooked++
		}
	}
	return byAgent
}

func groupMeans(ws []AgentWindowStats) (trained, control float64) {
	var tSum, cSum float64
	var tN, cN int
	for _, a := range ws {
		if a.Reservations+a.Unbooked == 0 {
			continue
		}
		if a.Trained {
			tSum += a.ConversionRate()
			tN++
		} else {
			cSum += a.ConversionRate()
			cN++
		}
	}
	if tN > 0 {
		trained = tSum / float64(tN)
	}
	if cN > 0 {
		control = cSum / float64(cN)
	}
	return trained, control
}

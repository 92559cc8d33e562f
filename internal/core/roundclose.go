package core

import (
	"fmt"
	"math"
	"sort"
)

// RoundCloser is the per-round Report bookkeeping every round loop shares:
// Platform.Run's synchronous rounds, runAsync's versions and the cell
// fabric's global rounds all hand each closed round to Close, so wall
// totals, the StreamOnly-gated slices, milestone capture, the OnRound and
// Trajectory fan-out and the target check live in one place.
type RoundCloser struct {
	// Report is the report being built; the loop fills the end-of-run
	// scalars (FinalGlobal, Elapsed, CPUTotal, ...) itself.
	Report *Report

	cfg        RunConfig
	milestones []float64 // ascending; consumed as the curve crosses them
	next       int
	sinkErr    error
}

// NewRoundCloser starts an empty Report for cfg. It rejects a NaN
// milestone level, which would sort first and, comparing false against
// every accuracy, silently suppress all later milestones.
func NewRoundCloser(cfg RunConfig) (*RoundCloser, error) {
	milestones := append([]float64(nil), cfg.Milestones...)
	for _, m := range milestones {
		if math.IsNaN(m) {
			return nil, fmt.Errorf("core: milestone level NaN in %v", cfg.Milestones)
		}
	}
	sort.Float64s(milestones)
	return &RoundCloser{
		Report:     &Report{System: cfg.System, Model: cfg.Model},
		cfg:        cfg,
		milestones: milestones,
	}, nil
}

// Close folds one closed round (or async version) into the Report and
// reports whether it is the round that first reached the accuracy target.
// activeAggs is the instance count sampled for Report.ActiveAggs. Async
// runs have no rounds, so they append only Acc and ActiveAggs. A
// Trajectory sink error is returned and latched: later rounds are no
// longer offered to the sink, and the caller aborts the run.
func (c *RoundCloser) Close(ob RoundObservation, activeAggs int) (reached bool, err error) {
	rep, cfg := c.Report, c.cfg
	rep.RoundWallTotal += ob.Wall
	if ob.Wall > rep.RoundWallMax {
		rep.RoundWallMax = ob.Wall
	}
	rep.RoundsRun++
	if !cfg.StreamOnly {
		if cfg.System != SystemAsync {
			rep.Rounds = append(rep.Rounds, ob.Result)
			rep.CPUPerRound = append(rep.CPUPerRound, ob.Result.CPUTime.Seconds())
		}
		rep.ActiveAggs = append(rep.ActiveAggs, activeAggs)
		rep.Acc = append(rep.Acc, ob.Acc)
	}
	acc := ob.Acc.Accuracy
	for c.next < len(c.milestones) && acc >= c.milestones[c.next] {
		rep.Milestones = append(rep.Milestones, MilestoneHit{Target: c.milestones[c.next], At: ob.Acc})
		c.next++
	}
	if cfg.OnRound != nil {
		cfg.OnRound(ob)
	}
	if cfg.Trajectory != nil && c.sinkErr == nil {
		if err := cfg.Trajectory.Observe(ob); err != nil {
			unit := "round"
			if cfg.System == SystemAsync {
				unit = "version"
			}
			c.sinkErr = fmt.Errorf("core: trajectory sink at %s %d: %w", unit, ob.Acc.Round, err)
		}
	}
	if !rep.Reached && acc >= cfg.TargetAccuracy {
		rep.Reached = true
		rep.TimeToTarget = ob.Acc.Time
		rep.CPUToTarget = ob.Acc.CPUTime
		reached = true
	}
	return reached, c.sinkErr
}

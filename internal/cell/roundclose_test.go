package cell

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/flwork"
	"repro/internal/model"
)

// closeLoops are the three round loops that share core.RoundCloser.
func closeLoops(cfg core.RunConfig) []struct {
	name string
	cfg  core.RunConfig
	run  func(core.RunConfig) (*core.Report, error)
} {
	async := cfg
	async.System = core.SystemAsync
	fabric := cfg
	fabric.Cells = &core.CellSpec{Count: 2}
	return []struct {
		name string
		cfg  core.RunConfig
		run  func(core.RunConfig) (*core.Report, error)
	}{
		{"sync", cfg, core.Run},
		{"async", async, core.Run},
		{"fabric", fabric, func(c core.RunConfig) (*core.Report, error) {
			rep, _, err := Run(c)
			return rep, err
		}},
	}
}

func tinyCfg() core.RunConfig {
	return core.RunConfig{
		Model:          model.TinyFL,
		Clients:        64,
		ActivePerRound: 8,
		Class:          flwork.Mobile,
		MaxRounds:      50,
		Seed:           1,
	}
}

// A NaN milestone level sorts first and never compares true, so it would
// silently suppress every later milestone. All three round loops — the
// synchronous one, the async version loop and the cell fabric — must
// reject it with an error before their first round.
func TestNaNMilestoneRejected(t *testing.T) {
	cfg := tinyCfg()
	cfg.Milestones = []float64{math.NaN(), 0.3, 0.5}
	for _, tc := range closeLoops(cfg) {
		t.Run(tc.name, func(t *testing.T) {
			rounds := 0
			tc.cfg.OnRound = func(core.RoundObservation) { rounds++ }
			rep, err := tc.run(tc.cfg)
			if err == nil {
				t.Fatalf("NaN milestone accepted: %d milestone hits", len(rep.Milestones))
			}
			if rounds != 0 {
				t.Fatalf("error after %d rounds; want it before round 1", rounds)
			}
		})
	}
}

// failingSink accepts `ok` observations, then fails every later one.
type failingSink struct{ ok, seen int }

var errSinkFull = errors.New("sink full")

func (s *failingSink) Observe(core.RoundObservation) error {
	s.seen++
	if s.seen > s.ok {
		return errSinkFull
	}
	return nil
}

// A Trajectory sink error aborts every loop at the failing round: the
// error wraps the sink's, and no later round (or version) is played.
func TestTrajectorySinkErrorAbortsRun(t *testing.T) {
	for _, tc := range closeLoops(tinyCfg()) {
		t.Run(tc.name, func(t *testing.T) {
			rounds := 0
			sink := &failingSink{ok: 2}
			tc.cfg.OnRound = func(core.RoundObservation) { rounds++ }
			tc.cfg.Trajectory = sink
			_, err := tc.run(tc.cfg)
			if !errors.Is(err, errSinkFull) {
				t.Fatalf("err = %v, want the sink's error", err)
			}
			if rounds != 3 || sink.seen != 3 {
				t.Fatalf("rounds observed = %d, sink calls = %d; want the run to stop at round 3", rounds, sink.seen)
			}
		})
	}
}

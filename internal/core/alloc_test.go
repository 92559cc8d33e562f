package core

import (
	"runtime"
	"testing"

	"repro/internal/flwork"
	"repro/internal/model"
	"repro/internal/sim"
)

// TestR18FleetBytesPerRound bounds the heap bytes a warm LIFL round
// allocates on the fig9-r18 LIFL configuration. Each round builds 63
// aggregators; with their accumulators and aggregates recycled through the
// system's buffer pool, a round allocates about 0.4 MB of control-plane
// records. Without recycling it allocates about 2.7 MB.
func TestR18FleetBytesPerRound(t *testing.T) {
	p, err := NewPlatform(RunConfig{
		System:         SystemLIFL,
		Model:          model.ResNet18,
		Clients:        2800,
		ActivePerRound: 120,
		Class:          flwork.Mobile,
		TargetAccuracy: 0.70,
		MaxRounds:      400,
		Nodes:          5,
		MC:             60,
		Seed:           7919,
		Workers:        1,
		StreamOnly:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(p.Cfg.Seed + 2)
	const warm, measured = 5, 20
	step := func(r int) {
		if _, _, err := p.StepRound(rng, r, 0); err != nil {
			t.Fatal(err)
		}
	}
	for r := 1; r <= warm; r++ {
		step(r)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := warm + 1; r <= warm+measured; r++ {
		step(r)
	}
	runtime.ReadMemStats(&after)
	perRound := float64(after.TotalAlloc-before.TotalAlloc) / measured
	t.Logf("%.0f bytes allocated per warm round", perRound)
	if perRound > 1<<20 {
		t.Fatalf("%.0f bytes allocated per warm round, want <= 1 MiB", perRound)
	}
}

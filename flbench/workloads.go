package main

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/flwork"
	"repro/internal/model"
)

// tinyChurnRounds is tiny-churn's fixed round count: long enough that
// per-round machinery, not setup, is the run (~1 s on a 2-core x86 box),
// short enough that a measurement window holds a dozen repeats.
const tinyChurnRounds = 5000

// workload is one benchmark input: a seed-parameterized run config plus
// the outcome every seed must reach (the curve is seed-free, so the round
// count and the reached verdict are fixed per workload).
type workload struct {
	name string
	// fabric runs through the multi-cell fabric (internal/cell) instead
	// of a single platform.
	fabric bool
	// trajectory streams every round into a trajstore sink.
	trajectory bool
	rounds     int
	reached    bool
	config     func(seed int64) core.RunConfig
}

// r18Fleet is the LIFL arm of fig9-r18: the paper's ResNet-18 mobile
// workload, which r18-async reuses as its population.
func r18Fleet(seed int64) core.RunConfig {
	return core.RunConfig{
		System:         core.SystemLIFL,
		Model:          model.ResNet18,
		Clients:        2800,
		ActivePerRound: 120,
		Class:          flwork.Mobile,
		TargetAccuracy: 0.70,
		MaxRounds:      400,
		Nodes:          5,
		MC:             60,
		Seed:           seed,
		Workers:        1,
	}
}

var workloads = []workload{
	{
		// The fig9-r18 LIFL arm: update materialization, the tensor fold
		// and the shm/aggcore data plane dominate; setup is under 1 ms.
		name:    "r18-fleet",
		rounds:  79,
		reached: true,
		config:  r18Fleet,
	},
	{
		// 8M clients over 4 skewed cells on the streaming selector:
		// population synthesis and the cross-cell tier dominate.
		name:    "geo-pop",
		fabric:  true,
		rounds:  79,
		reached: true,
		config: func(seed int64) core.RunConfig {
			c := r18Fleet(seed)
			c.Clients = 8_000_000
			c.MaxRounds = 120
			c.Selector = core.SelectStream
			c.StreamOnly = true
			c.Workers = 2
			c.Cells = &core.CellSpec{Count: 4, Regions: []float64{0.4, 0.3, 0.2, 0.1}}
			return c
		},
	},
	{
		// TinyFL, 8 of 512 clients, target unreachable: control-plane
		// records, the event engine and trajstore dominate.
		name:       "tiny-churn",
		trajectory: true,
		rounds:     tinyChurnRounds,
		reached:    false,
		config: func(seed int64) core.RunConfig {
			return core.RunConfig{
				System:         core.SystemLIFL,
				Model:          model.TinyFL,
				Clients:        512,
				ActivePerRound: 8,
				Class:          flwork.Server,
				TargetAccuracy: 0.99, // unreachable by design: every round runs
				MaxRounds:      tinyChurnRounds,
				Nodes:          1,
				MC:             60,
				Seed:           seed,
				Workers:        1,
				Selector:       core.SelectStream,
				StreamOnly:     true,
			}
		},
	},
	{
		// Buffered-async on the r18-fleet population: one-at-a-time
		// dispatch, per-version merges, no round barrier.
		name:    "r18-async",
		rounds:  948,
		reached: true,
		config: func(seed int64) core.RunConfig {
			c := r18Fleet(seed)
			c.System = core.SystemAsync
			c.Nodes = 2
			c.Async = &core.AsyncSpec{BufferK: 10, StalenessHalfLife: 4}
			return c
		},
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

package scenario

import (
	"repro/internal/core"
	"repro/internal/flwork"
	"repro/internal/model"
	"repro/internal/systems"
)

// AblationVariants lists the Fig. 8 feature-prefix ablation in paper order:
// LIFL's orchestration features applied cumulatively on top of SL-H.
func AblationVariants() []FlagVariant {
	return []FlagVariant{
		{Label: "SL-H", Flags: systems.Flags{}},
		{Label: "+1", Flags: systems.Flags{LocalityPlacement: true}},
		{Label: "+1+2", Flags: systems.Flags{LocalityPlacement: true, HierarchyPlan: true}},
		{Label: "+1+2+3", Flags: systems.Flags{LocalityPlacement: true, HierarchyPlan: true, Reuse: true}},
		{Label: "+1+2+3+4", Flags: systems.AllFlags()},
	}
}

// The built-in registry: the paper's §6.2 workloads and the roadmap's
// scale scenarios. Experiments and cmd/liflsim resolve these by name.
func init() {
	// Fig. 9(a,b) + Fig. 10(a-c): ResNet-18, 120 simultaneously active
	// mobile clients out of 2,800, time/cost to 70% for the three systems.
	mustRegister(Scenario{
		Name:           "fig9-r18",
		Description:    "§6.2 ResNet-18 workload: time/cost-to-accuracy, LIFL vs SF vs SL",
		Model:          model.ResNet18,
		Clients:        2800,
		ActivePerRound: 120,
		Class:          flwork.Mobile,
		TargetAccuracy: 0.70,
		MaxRounds:      400,
		Nodes:          5,
		MC:             60, // smaller updates → higher per-node capacity (App. E)
		Seed:           1,
		Systems:        []core.SystemKind{core.SystemLIFL, core.SystemSF, core.SystemSL},
		Bench:          BenchMeta{Class: ClassLong, Repeats: 3, Milestones: []float64{0.50, 0.60, 0.70}},
	})
	// Fig. 9(c,d) + Fig. 10(d-f): ResNet-152, 15 always-on server clients.
	mustRegister(Scenario{
		Name:           "fig9-r152",
		Description:    "§6.2 ResNet-152 workload: time/cost-to-accuracy, LIFL vs SF vs SL",
		Model:          model.ResNet152,
		Clients:        2800,
		ActivePerRound: 15,
		Class:          flwork.Server,
		TargetAccuracy: 0.70,
		MaxRounds:      400,
		Nodes:          5,
		MC:             20,
		Seed:           1,
		Systems:        []core.SystemKind{core.SystemLIFL, core.SystemSF, core.SystemSL},
		Bench:          BenchMeta{Class: ClassLong, Repeats: 3, Milestones: []float64{0.50, 0.60, 0.70}},
	})
	// Fig. 8(a-d): the orchestration ablation grid — five feature prefixes
	// × three injected batch sizes, each cell a cold single-round cluster.
	mustRegister(Scenario{
		Name:        "fig8-ablation",
		Description: "Fig. 8 orchestration ablation: 5 flag prefixes × 20/60/100 injected updates",
		Model:       model.ResNet152,
		Nodes:       5,
		MC:          20,
		MaxRounds:   1,
		Seed:        88,
		Systems:     []core.SystemKind{core.SystemLIFL},
		Variants:    AblationVariants(),
		Loads:       []int{20, 60, 100},
		// Injected single-round cells: no accuracy trajectory to milestone.
		Bench: BenchMeta{Class: ClassShort, Repeats: 5},
	})
	// Appendix E, workload-level: sweep the configured MC around the
	// calibrated knee to show the §6.2 outcome's sensitivity to the
	// offline capacity measurement.
	mustRegister(Scenario{
		Name:           "appendixe-mc",
		Description:    "Appendix E sensitivity: ResNet-152 workload across MC = 10/20/40",
		Model:          model.ResNet152,
		Clients:        2800,
		ActivePerRound: 15,
		Class:          flwork.Server,
		TargetAccuracy: 0.70,
		MaxRounds:      200,
		Nodes:          5,
		Seed:           1,
		MCs:            []float64{10, 20, 40},
		Bench:          BenchMeta{Class: ClassLong, Repeats: 3, Milestones: []float64{0.70}},
	})
	// Roadmap scale: a million-client population on the streaming
	// O(ActivePerRound) selector with a lean (non-accumulating) report.
	mustRegister(Scenario{
		Name:           "million-clients",
		Description:    "scale: 1M-client population, streaming selector, lean report",
		Model:          model.ResNet18,
		Clients:        1_000_000,
		ActivePerRound: 120,
		Class:          flwork.Mobile,
		TargetAccuracy: 0.70,
		MaxRounds:      100,
		Nodes:          5,
		MC:             60,
		Seed:           1,
		Streaming:      true,
		Bench:          BenchMeta{Class: ClassLong, Repeats: 3, Milestones: []float64{0.50, 0.70}},
	})
	// Ten-million scale: the staged round loop's headline entry. Chunked
	// value-backed population storage (raw draws, attributes derived on
	// access) plus the parallel materialization stage keep a 10M-client
	// run in whole-seconds territory; Workers pins the pool the stages may
	// use (the Report is byte-identical for any value, so the pin is
	// wall-clock only).
	mustRegister(Scenario{
		Name:           "10m-clients",
		Description:    "scale: 10M-client population, staged round loop, 8 workers",
		Model:          model.ResNet18,
		Clients:        10_000_000,
		ActivePerRound: 120,
		Class:          flwork.Mobile,
		TargetAccuracy: 0.70,
		MaxRounds:      100,
		Nodes:          5,
		MC:             60,
		Seed:           1,
		Workers:        8,
		Streaming:      true,
		Bench:          BenchMeta{Class: ClassShort, Repeats: 2, Milestones: []float64{0.50, 0.70}},
	})
	// Failure model: the §3 resilience path under a lossy mobile fleet —
	// heartbeat-detected failures covered by over-provisioned standbys.
	mustRegister(Scenario{
		Name:           "flaky-mobile",
		Description:    "§3 resilience: ResNet-18 fleet with 10% per-selection client failures",
		Model:          model.ResNet18,
		Clients:        2800,
		ActivePerRound: 120,
		Class:          flwork.Mobile,
		TargetAccuracy: 0.70,
		MaxRounds:      400,
		Nodes:          5,
		MC:             60,
		Seed:           1,
		FailureRate:    0.10,
		Bench:          BenchMeta{Class: ClassShort, Repeats: 3, Milestones: []float64{0.70}},
	})
	// Fig. 11 (Appendix A): the buffered-async workload — 120 clients
	// training at all times, FedBuff buffer K=10, staleness half-life 4
	// versions. The async analogue of fig9-r18, version-for-round.
	mustRegister(Scenario{
		Name:           "fig11-async",
		Description:    "Fig. 11 buffered-async FL: ResNet-18, buffer K=10, staleness half-life 4",
		Model:          model.ResNet18,
		Clients:        2800,
		ActivePerRound: 120,
		Class:          flwork.Mobile,
		TargetAccuracy: 0.70,
		MaxRounds:      400,
		Nodes:          2,
		MC:             60,
		Seed:           1,
		Systems:        []core.SystemKind{core.SystemAsync},
		AsyncBufferK:   10,
		AsyncHalfLife:  4,
		Bench:          BenchMeta{Class: ClassShort, Repeats: 3, Milestones: []float64{0.50, 0.70}},
	})
	// Async×sync ablation: the buffered-async system against the three
	// synchronous systems on the same workload, population and seed — the
	// Fig. 11 argument (event-driven designs pay off most without round
	// barriers) as a single sweep axis.
	mustRegister(Scenario{
		Name:           "fig11-ablation",
		Description:    "Fig. 11 async×sync ablation: buffered-async vs LIFL/SF/SL time-to-accuracy",
		Model:          model.ResNet18,
		Clients:        2800,
		ActivePerRound: 120,
		Class:          flwork.Mobile,
		TargetAccuracy: 0.70,
		MaxRounds:      400,
		Nodes:          5,
		MC:             60,
		Seed:           1,
		Systems:        []core.SystemKind{core.SystemAsync, core.SystemLIFL, core.SystemSF, core.SystemSL},
		AsyncBufferK:   10,
		AsyncHalfLife:  4,
		Bench:          BenchMeta{Class: ClassLong, Repeats: 3, Milestones: []float64{0.50, 0.70}},
	})
	// Roadmap scale, async edition: a million-client population feeding the
	// buffered-async service through the streaming selector, lean report.
	mustRegister(Scenario{
		Name:           "async-million-clients",
		Description:    "scale: 1M-client buffered-async run, streaming selector, lean report",
		Model:          model.ResNet18,
		Clients:        1_000_000,
		ActivePerRound: 120,
		Class:          flwork.Mobile,
		TargetAccuracy: 0.70,
		MaxRounds:      100,
		Nodes:          5,
		MC:             60,
		Seed:           1,
		Systems:        []core.SystemKind{core.SystemAsync},
		AsyncBufferK:   60,
		AsyncHalfLife:  4,
		Streaming:      true,
		Bench:          BenchMeta{Class: ClassLong, Repeats: 3, Milestones: []float64{0.50, 0.70}},
	})
	// Geo family: the multi-cell federation fabric (internal/cell). Four
	// locality-routed cells over a skewed region mix, each an independent
	// LIFL stack, stitched by the per-round cross-cell tier. Short-class:
	// the PR bench gate watches the fabric's hot path.
	mustRegister(Scenario{
		Name:           "geo-4cell",
		Description:    "geo fabric: 4 locality-routed LIFL cells, skewed regions, cross-cell fold",
		Model:          model.ResNet18,
		Clients:        2800,
		ActivePerRound: 120,
		Class:          flwork.Mobile,
		TargetAccuracy: 0.70,
		MaxRounds:      120,
		Nodes:          5,
		MC:             60,
		Seed:           1,
		Cells:          4,
		CellRegions:    []float64{0.4, 0.3, 0.2, 0.1},
		Bench:          BenchMeta{Class: ClassShort, Repeats: 3, Milestones: []float64{0.50, 0.70}},
	})
	// Roadmap scale, geo edition: a million clients routed across 8 skewed
	// regions, each region an independent cell on the streaming selector.
	mustRegister(Scenario{
		Name:           "geo-million-clients",
		Description:    "scale: 1M clients routed across 8 skewed-region cells, streaming selector",
		Model:          model.ResNet18,
		Clients:        1_000_000,
		ActivePerRound: 120,
		Class:          flwork.Mobile,
		TargetAccuracy: 0.70,
		MaxRounds:      100,
		Nodes:          5,
		MC:             60,
		Seed:           1,
		Cells:          8,
		CellRegions:    []float64{0.30, 0.20, 0.15, 0.10, 0.10, 0.05, 0.05, 0.05},
		Streaming:      true,
		Bench:          BenchMeta{Class: ClassLong, Repeats: 3, Milestones: []float64{0.50, 0.70}},
	})
	// Ten-million-client fabric: the same skewed-region mix at 10M clients,
	// with the K per-cell rounds stepped concurrently (the cross-cell tier
	// is the round's only barrier) and cell construction fanned across the
	// worker pool. Nightly-only: population synthesis dominates startup.
	mustRegister(Scenario{
		Name:           "geo-10m",
		Description:    "scale: 10M clients routed across 8 skewed-region cells, parallel per-cell rounds",
		Model:          model.ResNet18,
		Clients:        10_000_000,
		ActivePerRound: 120,
		Class:          flwork.Mobile,
		TargetAccuracy: 0.70,
		MaxRounds:      100,
		Nodes:          5,
		MC:             60,
		Seed:           1,
		Workers:        8,
		Cells:          8,
		CellRegions:    []float64{0.30, 0.20, 0.15, 0.10, 0.10, 0.05, 0.05, 0.05},
		Streaming:      true,
		Bench:          BenchMeta{Class: ClassLong, Repeats: 3, Milestones: []float64{0.50, 0.70}},
	})
	// Cell failover: kill one of four cells mid-training and compare the
	// straggler-cell policies — wait-all (block, restore from the cell's
	// last durable checkpoint, replay the round) vs quorum-3 (mask the
	// outage, discard the partial round, re-route the dead cell's clients)
	// — by their time-to-accuracy penalty.
	mustRegister(Scenario{
		Name:            "cell-outage",
		Description:     "cell failover: kill 1 of 4 cells at round 30, wait-all restore vs quorum-3 masking",
		Model:           model.ResNet18,
		Clients:         2800,
		ActivePerRound:  120,
		Class:           flwork.Mobile,
		TargetAccuracy:  0.70,
		MaxRounds:       160,
		Nodes:           5,
		MC:              60,
		Seed:            1,
		Cells:           4,
		CellRegions:     []float64{0.4, 0.3, 0.2, 0.1},
		CellOutageRound: 30,
		CellOutageCell:  1,
		CellQuorums:     []int{0, 3},
		Bench:           BenchMeta{Class: ClassLong, Repeats: 3, Milestones: []float64{0.50, 0.70}},
	})
	// Elastic family: live fabric reconfiguration (core.CellPlan →
	// internal/cell's versioned config pushes). Scale-out is the headline:
	// a flash crowd 8x the fleet's population lands at round 25 and two
	// joined cells absorb it — the ISSUE acceptance pins its milestone
	// crossings to within one round of a fleet pre-sized for the crowd.
	// Short-class: the PR bench gate watches the reconfiguration path.
	mustRegister(Scenario{
		Name:           "scale-out-under-load",
		Description:    "elastic fabric: 8x flash crowd at round 25 absorbed by two joining cells",
		Model:          model.ResNet18,
		Clients:        360,
		ActivePerRound: 192,
		Class:          flwork.Mobile,
		TargetAccuracy: 0.70,
		MaxRounds:      160,
		Nodes:          3,
		MC:             60,
		Seed:           7,
		Cells:          4,
		CellRegions:    []float64{0.4, 0.3, 0.2, 0.1},
		CellPlan: &core.CellPlan{Steps: []core.CellPlanStep{
			{Round: 25, Op: core.CellJoin, Weight: 0.5, Clients: 1440},
			{Round: 25, Op: core.CellJoin, Weight: 0.5, Clients: 1440},
		}},
		Bench: BenchMeta{Class: ClassShort, Repeats: 3, Milestones: []float64{0.50, 0.70}},
	})
	// The elastic counterfactual: the same 8x crowd dumped onto one region
	// with no capacity added. The crowded cell's quota share caps at its
	// resident population, the capped shares are lost accuracy credit every
	// round, and the milestones slip — the cliff scale-out-under-load
	// avoids. Nightly: the pair is a drift check on the overload model.
	mustRegister(Scenario{
		Name:           "flash-crowd",
		Description:    "elastic fabric: 8x flash crowd on one region, no scale-out — the TTA cliff",
		Model:          model.ResNet18,
		Clients:        360,
		ActivePerRound: 192,
		Class:          flwork.Mobile,
		TargetAccuracy: 0.70,
		MaxRounds:      160,
		Nodes:          3,
		MC:             60,
		Seed:           7,
		Cells:          4,
		CellRegions:    []float64{0.4, 0.3, 0.2, 0.1},
		CellPlan: &core.CellPlan{Steps: []core.CellPlanStep{
			{Round: 25, Op: core.CellWeight, Cell: 0, Weight: 0.4, Clients: 2880},
		}},
		Bench: BenchMeta{Class: ClassLong, Repeats: 3, Milestones: []float64{0.50, 0.70}},
	})
	// Rolling upgrade: replace the whole fleet cell by cell — every 20
	// rounds a replacement joins with the retiring cell's routing weight,
	// then the old cell drains (its clients re-home onto the survivors, its
	// accounting banks). By round 80 no original cell remains; the run must
	// still converge. Nightly: four reconfiguration pushes end to end.
	mustRegister(Scenario{
		Name:           "rolling-upgrade",
		Description:    "elastic fabric: rotate out all 4 cells via join+drain pushes every 20 rounds",
		Model:          model.ResNet18,
		Clients:        2800,
		ActivePerRound: 120,
		Class:          flwork.Mobile,
		TargetAccuracy: 0.70,
		MaxRounds:      200,
		Nodes:          5,
		MC:             60,
		Seed:           1,
		Cells:          4,
		CellRegions:    []float64{0.4, 0.3, 0.2, 0.1},
		CellPlan: &core.CellPlan{Steps: []core.CellPlanStep{
			{Round: 20, Op: core.CellJoin, Weight: 0.4, Clients: 700},
			{Round: 20, Op: core.CellDrain, Cell: 0},
			{Round: 40, Op: core.CellJoin, Weight: 0.3, Clients: 700},
			{Round: 40, Op: core.CellDrain, Cell: 1},
			{Round: 60, Op: core.CellJoin, Weight: 0.2, Clients: 700},
			{Round: 60, Op: core.CellDrain, Cell: 2},
			{Round: 80, Op: core.CellJoin, Weight: 0.1, Clients: 700},
			{Round: 80, Op: core.CellDrain, Cell: 3},
		}},
		Bench: BenchMeta{Class: ClassLong, Repeats: 3, Milestones: []float64{0.50, 0.70}},
	})
	// Round-count stress, short edition: 100K rounds streamed into the
	// bounded-memory trajectory store (internal/trajstore). TinyFL keeps
	// the per-round cost pure round machinery; the unreachable target
	// (the curve tops out at 0.80) runs the full MaxRounds. Sweeps every
	// synchronous shape: round-closure retirement (Service.RetireRound,
	// driven by RunConfig.RetainRounds) evicts per-round control-plane
	// records — round-named aggregators, socket routes, eBPF map entries,
	// broker topics — so the serverless systems now hold the same flat-RSS
	// contract the always-on SF hierarchy gets for free. PR-gated: the
	// bench gate watches the store's write path and each run's memory
	// trajectory (final heap, slope) alongside its time trajectory.
	mustRegister(Scenario{
		Name:           "traj-100k",
		Description:    "trajstore stress: 100K rounds streamed to the bounded-memory trajectory store",
		Systems:        []core.SystemKind{core.SystemSF, core.SystemLIFL, core.SystemSLH, core.SystemSL},
		Model:          model.TinyFL,
		Clients:        512,
		ActivePerRound: 8,
		Class:          flwork.Server,
		TargetAccuracy: 0.99, // unreachable by design: run every round
		MaxRounds:      100_000,
		Nodes:          1,
		MC:             60,
		Seed:           1,
		Streaming:      true,
		Trajectory:     true,
		Bench:          BenchMeta{Class: ClassShort, Repeats: 2, Milestones: []float64{0.50, 0.70}},
	})
	// Round-count stress, nightly edition: one million rounds under
	// StreamOnly + Trajectory — the flat-RSS headline entry, swept across
	// all four synchronous shapes now that round retirement keeps the
	// serverless control planes bounded. The in-test assertion lives in
	// traj_test.go (heap sampled over the run, bounded by a constant
	// independent of round count); the nightly bench gate additionally
	// fails on RSS-trajectory regression via the perfrec final-heap/slope
	// metrics.
	mustRegister(Scenario{
		Name:           "million-rounds",
		Description:    "trajstore stress: 1M rounds, flat RSS, StreamOnly + trajectory sink",
		Systems:        []core.SystemKind{core.SystemSF, core.SystemLIFL, core.SystemSLH, core.SystemSL},
		Model:          model.TinyFL,
		Clients:        512,
		ActivePerRound: 8,
		Class:          flwork.Server,
		TargetAccuracy: 0.99, // unreachable by design: run every round
		MaxRounds:      1_000_000,
		Nodes:          1,
		MC:             60,
		Seed:           1,
		Streaming:      true,
		Trajectory:     true,
		Bench:          BenchMeta{Class: ClassLong, Repeats: 2, Milestones: []float64{0.50, 0.70}},
	})
	// Server-momentum variant of the ResNet-18 workload: exercises the
	// FedAvgM (ScaleAdd-fused) model-install path end to end.
	mustRegister(Scenario{
		Name:           "fig9-r18-momentum",
		Description:    "ResNet-18 workload with server momentum (FedAvgM, β=0.9)",
		Model:          model.ResNet18,
		Clients:        2800,
		ActivePerRound: 120,
		Class:          flwork.Mobile,
		TargetAccuracy: 0.70,
		MaxRounds:      400,
		Nodes:          5,
		MC:             60,
		Seed:           1,
		ServerMomentum: 0.9,
		Bench:          BenchMeta{Class: ClassShort, Repeats: 3, Milestones: []float64{0.70}},
	})
}

func mustRegister(s Scenario) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

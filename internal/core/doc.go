// Package core is the top of the LIFL library: it assembles a complete FL
// platform (system under test + client population + learning curve) and
// runs synchronous FedAvg training to a target accuracy, collecting every
// metric the paper's evaluation reports — time-to-accuracy, cost-to-
// accuracy, per-round ACT and CPU, arrival-rate and active-aggregator time
// series. The examples and the experiment harness are thin layers over
// this package; the root package lifl re-exports it for downstream users.
//
// Layer (DESIGN.md): the top of the library. scenario expands into this
// package's RunConfigs; below it sit the five systems and the shared
// component/population/curve models. The synchronous round loop lives in
// core.go (its per-round primitive, Platform.StepRound, is also what the
// multi-cell fabric in internal/cell drives), the buffered-async progress
// loop in async.go. Both, and the fabric's global loop, close each round
// through one RoundCloser (roundclose.go): wall totals, the StreamOnly-
// gated slices, milestones, the OnRound/Trajectory fan-out and the target
// check. RunConfig.Cells (CellSpec) is validated here but executed by
// internal/cell, one layer up.
//
// The synchronous round is decomposed into four explicit stages (see
// stages.go): serial select & price, parallel update materialization into
// a per-platform tensor arena, serial event play-out, and a sharded
// deterministic fold. RunConfig.Workers bounds the pool (internal/par);
// it is a wall-clock knob only — the Report is byte-identical for any
// worker count (TestWorkersByteIdenticalReports).
//
// Every StepRound ends by retiring closed rounds' control-plane records:
// Service.RetireRound(round − RunConfig.RetainRounds) evicts them once
// they leave the retention window (the async loop retires per version
// bump). Like Workers, RetainRounds is not a schedule knob — the Report
// is byte-identical for any window, including retirement disabled
// (TestRetainRoundsByteIdenticalReports) — it is what keeps million-round
// runs' memory flat in every system, not just the static-hierarchy SF
// (TestFlatRSSLongRun; docs/MEMORY.md).
//
// Runs are observable through RunConfig.Telemetry (internal/obs): the
// round loop publishes round/update counters, accuracy gauges, ACT
// histograms and per-round envelope spans, and the systems append their
// Network/Agg/Eval task spans to the same span log; the four stages
// additionally record wall-clock profile counters and spans behind the
// registry's CaptureWall opt-in. Telemetry is off by default (nil registry = no-op
// sites), and the default snapshot is byte-identical for a fixed seed —
// the same contract Workers and RetainRounds carry.
package core

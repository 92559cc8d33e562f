// Package obs is the deterministic run-telemetry plane: a registry of
// named counters, gauges and histograms with zero-alloc hot-path updates,
// a bounded virtual-time span log, and three export surfaces — a
// versioned byte-deterministic JSON snapshot, a Chrome/Perfetto
// trace_event rendering, and the live `liflsim watch` dashboard model.
//
// Every instrumented layer (core's staged round loop, the async version
// loop, the cell fabric, the systems' control planes and task spans, the
// eBPF data plane) publishes through one *Registry handed down via
// core.RunConfig.Telemetry. Telemetry is off by default: a nil registry
// makes every handle and method a no-op, so instrumentation costs one
// nil check on paths that never opted in.
//
// # Determinism contract
//
// Metrics carry a Class. Det metrics are pure functions of (config,
// seed): for a fixed seed their values are identical for any worker
// count, any sweep parallelism and any control-plane retention window,
// so Snapshot — which serializes Det metrics only, with sorted keys and
// exact formatting — is byte-identical across all those knobs. Volatile
// metrics (wall-clock durations, RSS, retention-dependent churn such as
// "registrations retired") are excluded from the snapshot unless the
// registry was built with Options.CaptureWall — the same explicit opt-in
// contract trajstore uses for its wall-clock column. The virtual-time
// span log is Det (spans are appended from serial event play-out), so
// the Perfetto rendering of virtual spans is byte-identical too;
// wall-time stage spans ride the separate WallLog, which exists only
// under CaptureWall.
//
// # Scoping
//
// Names are flat, slash-separated paths ("ctrl/registrations_created",
// "fabric/cell/3/share"). Sub returns a view that prefixes every name it
// registers — the cell fabric hands each cell Sub("cell/<id>/") so two
// cells folding in parallel never write the same gauge. Sub views share
// the parent's metric store but expose no span logs: spans are
// root-only, because the log is single-writer by contract.
package obs

// Package fedavg implements the aggregation algorithms of Eq. (1):
// w_i = f({(w_i^k, A_i^k)}). FedAvg (McMahan et al., 2017) uses
// f = Σ w_i^k c_i^k / T_i with T_i = Σ c_i^k, where the auxiliary
// information A_i^k is the per-client sample count c_i^k.
//
// The State abstraction supports *cumulative* (eager) accumulation — the
// property the paper exploits for eager aggregation (§2.1: "the eager method
// is feasible for FedAvg with cumulative averaging") — and is hierarchical:
// an intermediate aggregate carries its total weight T, so a parent
// aggregating children's outputs weighted by their T values reproduces the
// flat weighted mean exactly (property-tested in fedavg_test.go).
//
// States draw their host buffers from a tensor.Pool: NewState acquires the
// running sums, Release returns them, and each Result tensor comes from
// the same pool for its final consumer to return. ServerOpt.Apply must not
// retain the aggregate it is given, because the caller recycles it as soon
// as Apply returns. This ownership contract concerns host memory only.
//
// Layer (DESIGN.md): algorithm layer under internal/core — Eq. (1)
// aggregation state plus the ServerOpt model-install extension point.
package fedavg

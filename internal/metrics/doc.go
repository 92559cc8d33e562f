// Package metrics implements the metrics server of LIFL's control plane
// (Fig. 3): sliding-window arrival-rate meters fed by the per-node agents
// (which drain the eBPF metrics maps, §4.3) and read by the load
// balancer's k_{i,t}. A meter trims events older than its window on every
// access, so its storage never grows with run length (docs/MEMORY.md).
//
// Layer (DESIGN.md): component support under internal/core — arrival
// meters feeding the placement/planner inputs.
package metrics

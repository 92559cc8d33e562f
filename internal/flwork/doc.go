// Package flwork generates the FL workloads of §6.2: a FEMNIST-like
// population of 2,800 clients with FedScale-style non-IID data (power-law
// sample counts, Dirichlet label skew), two client archetypes — battery-
// powered mobile devices that hibernate for random intervals in [0,60] s
// (the ResNet-18 setup, producing the bursty arrival pattern of Fig. 10(a))
// and always-on server clients (the ResNet-152 setup, Fig. 10(d)) — plus a
// trainer timing model and an empirical saturating accuracy curve.
//
// Substitution note (see DESIGN.md): training is not executed on real
// FEMNIST images. Client updates are real tensors derived from the global
// model (so FedAvg arithmetic is exact and property-testable), and accuracy
// follows a saturating curve calibrated to published FEMNIST/ResNet
// behaviour. Because every system under test shares the same algorithm and
// population, accuracy-vs-round is system-independent; time-to-accuracy
// differences then come from the system round latency — precisely the
// quantity the paper evaluates.
//
// Layer (DESIGN.md): workload layer under internal/core — client
// population, non-IID workload, accuracy curve shared by every system.
// Populations are stored as chunked value slices (24 B/client, no
// per-client pointers or ID strings — IDs derive on demand). Synthesis
// keeps the draws resident and derives attributes on access: one serial
// pass makes every RNG draw in the legacy order and stores the raw
// values, and Client.Samples and Client.Speed evaluate the power-law and
// log-normal transforms only for the clients a round actually reads —
// bit-identical to transforming all of them up front.
//
// Client updates are defined by one expression per element i,
// float32(math.Sin(float64(i)*0.01+φ) * mag), and are bit-identical to it.
// The kernel evaluates most elements from lazily built per-population
// sin/cos tables of i·0.01 through the angle-addition identity, with an
// error bound ε = 8·ulp(x_max) + 1e-14 derived in perturb: an element whose
// interval [A−ε, A+ε] does not map to a single float32 evaluates the
// definition itself, so goldens, .traj files and benchmark fingerprints do
// not depend on the fast path.
package flwork

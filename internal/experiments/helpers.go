package experiments

import (
	"repro/internal/fedavg"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/systems"
	"repro/internal/tensor"
)

// fedAvg returns the aggregation algorithm used by every experiment.
func fedAvg() fedavg.Algorithm { return fedavg.FedAvg{} }

// modelPool returns a buffer pool sized to m, for experiment aggregators.
func modelPool(m model.Spec) *tensor.Pool { return tensor.NewPool(m.PhysLen(), m.Params) }

// tensorT shortens closure signatures in experiment job builders.
type tensorT = tensor.Tensor

// injectedJobs builds n client jobs that arrive directly at the aggregation
// service (no broadcast), spread over the given window — the Fig. 8 setting
// where "model updates arrive at the aggregation service concurrently".
func injectedJobs(n int, window sim.Duration, weight float64) []systems.ClientJob {
	jobs := make([]systems.ClientJob, n)
	for k := 0; k < n; k++ {
		var d sim.Duration
		if n > 1 {
			d = window * sim.Duration(k) / sim.Duration(n)
		}
		jobs[k] = systems.ClientJob{
			ID:     "inj",
			Delay:  d,
			Weight: weight,
			MakeUpdate: func(g *tensor.Tensor) *tensor.Tensor {
				u := g.Clone()
				for i := range u.Data {
					u.Data[i] += 0.125
				}
				return u
			},
			SkipBroadcast: true,
			PreQueued:     true,
		}
	}
	return jobs
}

package experiments

import (
	"fmt"
	"strings"

	"repro/internal/aggcore"
	"repro/internal/autoscaler"
	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/model"
	"repro/internal/netstack"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/systems"
)

// Fig4Result is the outcome of the §4.1 motivation experiment: hierarchical
// aggregation on the serverful data plane barely beats no-hierarchy because
// the kernel networking path throttles the leaf↔top transfers.
type Fig4Result struct {
	NHRound sim.Duration // single aggregator, no hierarchy
	WHRound sim.Duration // 1 top + 4 leaves, same node
	NHTrace []obs.Span
	WHTrace []obs.Span
}

// fig4Trainers returns the 8 trainers' (train-time) delays: remote server
// clients training ResNet-152, slightly heterogeneous.
func fig4Trainers(rng *sim.RNG) []sim.Duration {
	out := make([]sim.Duration, 8)
	for i := range out {
		out[i] = rng.Jitter(22*sim.Second, 0.18)
	}
	return out
}

// Fig4 runs both settings with the serverful (kernel loopback) data plane
// on one node, eight remote ResNet-152 trainers, lazy aggregation.
func Fig4() Fig4Result {
	var nh, wh obs.SpanLog
	res := Fig4Result{NHRound: fig4Round(1, &nh), WHRound: fig4Round(4, &wh)}
	res.NHTrace, res.WHTrace = nh.Spans(), wh.Spans()
	return res
}

// fig4Round builds `leaves` leaf aggregators (0 leaves means NH: the top
// aggregates client updates directly) and returns the round completion time.
func fig4Round(leaves int, tr *obs.SpanLog) sim.Duration {
	m := model.ResNet152
	eng := sim.NewEngine()
	rng := sim.NewRNG(404)
	p := costmodel.Default()
	cl := cluster.New(eng, rng, p, 1)
	n := cl.Nodes[0]
	alg := fedAvg()
	pool := modelPool(m)
	nT := len(m.Layers)
	size := m.Bytes()

	var roundEnd sim.Duration
	top := aggcore.New("Top", aggcore.RoleTop, n, alg, pool)
	top.Mode = aggcore.Lazy
	top.Tracer = tr
	top.TraceName = "Top"
	top.OnComplete = func(a *aggcore.Aggregator, _ aggcore.Update) {
		eval := p.EvalTime(size)
		a.ExecAs("aggregator", eval, eval, func(start, end sim.Duration) {
			tr.Add(obs.Span{Actor: "Top", Kind: obs.KindEval, Start: start, End: end})
			roundEnd = end
		})
	}

	var lfs []*aggcore.Aggregator
	if leaves <= 1 {
		top.Assign(aggcore.RoleTop, 8, "", 0)
	} else {
		top.Assign(aggcore.RoleTop, leaves, "", 0)
		for i := 0; i < leaves; i++ {
			lf := aggcore.New(fmt.Sprintf("LF%d", i+1), aggcore.RoleLeaf, n, alg, pool)
			lf.Mode = aggcore.Lazy
			lf.Tracer = tr
			lf.Assign(aggcore.RoleLeaf, 8/leaves, "Top", 0)
			lf.Transport = sfLoopback{top: top, nT: nT, tr: tr}
			lfs = append(lfs, lf)
		}
	}

	// Eight remote trainers upload after training; the receive pipeline
	// (kernel RX + deserialize + queue copy) serializes per aggregator.
	for i, d := range fig4Trainers(rng) {
		dst := top
		if len(lfs) > 0 {
			dst = lfs[i%len(lfs)]
		}
		eng.After(d, func() {
			netstack.IngressFromExternal(n, netstack.Transfer{Size: size, NTensors: nT, Component: "sf-ingest"}, func() {
				desLat, desCPU := p.Deserialize(size, nT)
				qLat, qCPU := p.ShmWrite(size)
				dst.ExecAs("sf-ingest", desLat+qLat, desCPU+qCPU, func(start, end sim.Duration) {
					tr.Add(obs.Span{Actor: dst.TraceName, Kind: obs.KindNetwork, Start: start, End: end})
					u := m.NewTensor()
					u.Fill(1)
					dst.Receive(aggcore.Update{Tensor: u, Weight: 1, Size: size, Round: 0})
				})
			})
		})
	}
	if err := eng.RunUntilIdle(); err != nil {
		panic(err)
	}
	if roundEnd == 0 {
		panic("fig4: round did not complete")
	}
	return roundEnd
}

// sfLoopback is the serverful intra-node transport used by the Fig. 4
// harness: serialize + kernel TX on the source process, kernel RX +
// deserialize on the destination process.
type sfLoopback struct {
	top *aggcore.Aggregator
	nT  int
	tr  *obs.SpanLog
}

// SendResult implements aggcore.Transport.
func (t sfLoopback) SendResult(src *aggcore.Aggregator, out aggcore.Update, _ string) {
	p := src.Node.P
	serLat, serCPU := p.Serialize(out.Size, t.nT)
	txLat, txCPU := p.KernelTraversal(out.Size)
	rxLat, rxCPU := p.KernelTraversal(out.Size)
	desLat, desCPU := p.Deserialize(out.Size, t.nT)
	start := src.Node.Eng.Now()
	src.ExecAs("sf-transport", serLat, serCPU, func(_, _ sim.Duration) {
		src.Node.KernelExec("sf-transport", txLat+rxLat, txCPU+rxCPU, func(_, _ sim.Duration) {
			t.top.ExecAs("sf-transport", desLat, desCPU, func(_, end sim.Duration) {
				t.tr.Add(obs.Span{Actor: t.top.TraceName, Kind: obs.KindNetwork, Start: start, End: end, Round: out.Round})
				t.top.Receive(out)
			})
		})
	})
}

// Fig7cResult is the LIFL counterpart timeline (Fig. 7(c)).
type Fig7cResult struct {
	Round sim.Duration
	Trace []obs.Span
}

// Fig7c runs the same 8-trainer ResNet-152 round on LIFL's data plane with
// the paper's topology (four leaves feeding the top directly, one node).
func Fig7c() Fig7cResult {
	eng := sim.NewEngine()
	reg := obs.New(obs.Options{})
	s := systems.NewLIFL(eng, systems.Config{
		Nodes: 1,
		Model: model.ResNet152,
		MC:    100,
		Seed:  404,
		Flags: systems.Flags{LocalityPlacement: true, HierarchyPlan: true, Eager: true},
		Obs:   reg,
	})
	s.ForcePlan = func(node string, updates int) autoscaler.Plan {
		return autoscaler.Plan{Node: node, Updates: updates, Leaves: 4, Middle: false, LeafGoals: []int{2, 2, 2, 2}}
	}
	rng := sim.NewRNG(404)
	var jobs []systems.ClientJob
	for _, d := range fig4Trainers(rng) {
		jobs = append(jobs, systems.ClientJob{
			ID: "trainer", Delay: d, Weight: 1,
			MakeUpdate:    func(g *tensorT) *tensorT { u := g.Clone(); u.Fill(1); return u },
			SkipBroadcast: true,
		})
	}
	var round sim.Duration
	s.RunRound(0, jobs, func(r systems.RoundResult) { round = r.End - r.Start })
	if err := eng.RunUntilIdle(); err != nil {
		panic(err)
	}
	return Fig7cResult{Round: round, Trace: taskSpans(reg)}
}

// FormatFig4 renders both timelines plus LIFL's, like Fig. 4 and Fig. 7(c).
func FormatFig4(f Fig4Result, l Fig7cResult) string {
	var b strings.Builder
	horizon := f.NHRound
	if f.WHRound > horizon {
		horizon = f.WHRound
	}
	fmt.Fprintf(&b, "Fig.4 upper — no hierarchy (NH), round = %.1fs (paper 59.8s)\n", f.NHRound.Seconds())
	b.WriteString(renderGantt(f.NHTrace, []string{"Top"}, horizon, 90))
	fmt.Fprintf(&b, "\nFig.4 lower — with hierarchy (WH), round = %.1fs (paper 57s)\n", f.WHRound.Seconds())
	b.WriteString(renderGantt(f.WHTrace, []string{"LF1", "LF2", "LF3", "LF4", "Top"}, horizon, 90))
	fmt.Fprintf(&b, "\nFig.7(c) — LIFL data plane, round = %.1fs (paper 44.9s)\n", l.Round.Seconds())
	actors := []string{"r0-n0-leaf0", "r0-n0-leaf1", "r0-n0-leaf2", "r0-n0-leaf3", "Top"}
	b.WriteString(renderGantt(l.Trace, actors, horizon, 90))
	return b.String()
}

package experiments

import (
	"fmt"
	"strings"

	"repro/internal/aggcore"
	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/model"
	"repro/internal/sidecar"
	"repro/internal/sim"
)

// Fig7Row is one bar group of Fig. 7(a)/(b): a single model-update transfer
// between a leaf and the top aggregator on the same node.
type Fig7Row struct {
	Model      model.Spec
	LIFLLat    sim.Duration
	SFLat      sim.Duration
	SLLat      sim.Duration
	SLSidecar  sim.Duration // +SC share of the SL bar
	SLBroker   sim.Duration // +MB share of the SL bar
	LIFLCycles float64      // CPU cycles (Fig. 7(b))
	SFCycles   float64
	SLCycles   float64
}

// Fig7ab measures the intra-node single-transfer latency and CPU for the
// three data planes across the three models. Every path runs on a fresh
// one-node cluster so the measurement is unloaded, like the paper's
// microbenchmark.
func Fig7ab() []Fig7Row {
	var rows []Fig7Row
	for _, m := range model.All {
		row := Fig7Row{Model: m}
		row.LIFLLat, row.LIFLCycles = measureLIFLTransfer(m)
		row.SFLat, row.SFCycles = measureSFTransfer(m)
		row.SLLat, row.SLCycles, row.SLSidecar, row.SLBroker = measureSLTransfer(m)
		rows = append(rows, row)
	}
	return rows
}

// pair builds a one-node cluster with a source and destination aggregator.
func pair(m model.Spec) (*sim.Engine, *cluster.Node, *aggcore.Aggregator, *aggcore.Aggregator) {
	eng := sim.NewEngine()
	p := costmodel.Default()
	cl := cluster.New(eng, sim.NewRNG(1), p, 1)
	n := cl.Nodes[0]
	alg, pool := fedAvg(), modelPool(m)
	src := aggcore.New("leaf", aggcore.RoleLeaf, n, alg, pool)
	dst := aggcore.New("top", aggcore.RoleTop, n, alg, pool)
	return eng, n, src, dst
}

// measureLIFLTransfer: the producer writes its aggregate into shared memory
// (one copy) and the 16-byte key passes over SKMSG; the consumer reads in
// place. Latency is write + key pass; CPU is the shm write + eBPF event.
func measureLIFLTransfer(m model.Spec) (sim.Duration, float64) {
	eng, n, src, _ := pair(m)
	size := m.Bytes()
	var doneAt sim.Duration
	shmLat, shmCPU := n.P.ShmWrite(size)
	src.ExecAs("aggregator", shmLat, shmCPU, func(_, _ sim.Duration) {
		if _, err := n.Shm.Put(m.NewTensor(), 1, "leaf", 0); err != nil {
			panic(err)
		}
		n.ExecFree("ebpf-sidecar", costmodel.Cycles(n.P.EBPFMetricsCycles))
		eng.After(n.P.ShmKeyPassLatency, func() { doneAt = eng.Now() })
	})
	if err := eng.RunUntilIdle(); err != nil {
		panic(err)
	}
	return doneAt, costmodel.CyclesOf(n.TotalCPUTime())
}

// measureSFTransfer: direct gRPC over the kernel loopback — serialize,
// kernel TX, kernel RX, deserialize, each half on its aggregator's process.
func measureSFTransfer(m model.Spec) (sim.Duration, float64) {
	eng, n, src, dst := pair(m)
	size := m.Bytes()
	nT := len(m.Layers)
	p := n.P
	var doneAt sim.Duration
	serLat, serCPU := p.Serialize(size, nT)
	txLat, txCPU := p.KernelTraversal(size)
	rxLat, rxCPU := p.KernelTraversal(size)
	desLat, desCPU := p.Deserialize(size, nT)
	src.ExecAs("sf-transport", serLat, serCPU, func(_, _ sim.Duration) {
		n.KernelExec("sf-transport", txLat+rxLat, txCPU+rxCPU, func(_, _ sim.Duration) {
			dst.ExecAs("sf-transport", desLat, desCPU, func(_, _ sim.Duration) {
				doneAt = eng.Now()
			})
		})
	})
	if err := eng.RunUntilIdle(); err != nil {
		panic(err)
	}
	return doneAt, costmodel.CyclesOf(n.TotalCPUTime())
}

// measureSLTransfer: the SF kernel path plus a sidecar interception on each
// side plus the store-and-forward broker hop, with the +SC and +MB shares
// reported separately as in the figure.
func measureSLTransfer(m model.Spec) (lat sim.Duration, cycles float64, sc, mb sim.Duration) {
	eng, n, src, dst := pair(m)
	size := m.Bytes()
	nT := len(m.Layers)
	p := n.P
	br := broker.New(n)
	scSrc := sidecar.NewContainer(n, "leaf")
	scDst := sidecar.NewContainer(n, "top")
	var doneAt sim.Duration
	serLat, serCPU := p.Serialize(size, nT)
	txLat, txCPU := p.KernelTraversal(size)
	rxLat, rxCPU := p.KernelTraversal(size)
	desLat, desCPU := p.Deserialize(size, nT)

	br.Subscribe("top", func(msg broker.Message) {
		scDst.Intercept(msg.Size, func() {
			n.KernelExec("sl-transport", rxLat, rxCPU, func(_, _ sim.Duration) {
				dst.ExecAs("sl-transport", desLat, desCPU, func(_, _ sim.Duration) {
					doneAt = eng.Now()
				})
			})
		})
	})
	scSrc.Intercept(size, func() {
		src.ExecAs("sl-transport", serLat, serCPU, func(_, _ sim.Duration) {
			n.KernelExec("sl-transport", txLat, txCPU, func(_, _ sim.Duration) {
				br.Publish("top", size, nil)
			})
		})
	})
	if err := eng.RunUntilIdle(); err != nil {
		panic(err)
	}
	scSrc.Finalize()
	scDst.Finalize()
	scLat, _ := p.SidecarHop(size)
	brLat, _ := p.BrokerHop(size)
	return doneAt, costmodel.CyclesOf(n.TotalCPUTime()), 2 * scLat, brLat
}

// FormatFig7 renders the rows like the paper's bar chart annotations.
func FormatFig7(rows []Fig7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.7(a) intra-node transfer latency / Fig.7(b) CPU cycles\n")
	fmt.Fprintf(&b, "%-12s %10s %10s %10s %8s %8s | %10s %10s %10s\n",
		"model", "LIFL", "SF", "SL", "+SC", "+MB", "LIFL(Gc)", "SF(Gc)", "SL(Gc)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %10.2fs %9.2fs %9.2fs %7.2fs %7.2fs | %10.2f %10.2f %10.2f\n",
			r.Model.Name,
			r.LIFLLat.Seconds(), r.SFLat.Seconds(), r.SLLat.Seconds(),
			r.SLSidecar.Seconds(), r.SLBroker.Seconds(),
			r.LIFLCycles/1e9, r.SFCycles/1e9, r.SLCycles/1e9)
	}
	last := rows[len(rows)-1]
	fmt.Fprintf(&b, "ratios (ResNet-152): SF/LIFL=%.1fx SL/LIFL=%.1fx (paper: 3x, 5.8x)\n",
		last.SFLat.Seconds()/last.LIFLLat.Seconds(), last.SLLat.Seconds()/last.LIFLLat.Seconds())
	return b.String()
}

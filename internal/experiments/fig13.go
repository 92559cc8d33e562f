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

// Fig13Row is one (setup, model) cell of the Appendix-F message-queuing
// comparison: a single client→aggregator model-update transfer through each
// queuing pipeline of Fig. 5.
type Fig13Row struct {
	Setup    string
	Model    model.Spec
	CPU      sim.Duration // CPU consumed along the pipeline
	MemBytes uint64       // payload buffers held along the pipeline
	Delay    sim.Duration // end-to-end client→aggregator networking delay
}

// Fig13 runs all four setups across M1/M2/M3.
func Fig13() []Fig13Row {
	var rows []Fig13Row
	for _, m := range model.All {
		rows = append(rows,
			fig13Run("SF-mono", m),
			fig13Run("LIFL", m),
			fig13Run("SF-micro", m),
			fig13Run("SL-B", m),
		)
	}
	return rows
}

func fig13Run(setup string, m model.Spec) Fig13Row {
	eng := sim.NewEngine()
	p := costmodel.Default()
	cl := cluster.New(eng, sim.NewRNG(13), p, 1)
	n := cl.Nodes[0]
	agg := aggcore.New("agg", aggcore.RoleLeaf, n, fedAvg(), modelPool(m))
	size := m.Bytes()
	nT := len(m.Layers)
	var doneAt sim.Duration
	finish := func(_, _ sim.Duration) { doneAt = eng.Now() }

	rxLat, rxCPU := p.KernelTraversal(size)
	desLat, desCPU := p.Deserialize(size, nT)
	memcpyLat, memcpyCPU := p.ShmWrite(size)
	stages := 0

	switch setup {
	case "SF-mono":
		// Fig. 5 left: the monolith's in-memory queue — kernel RX, then the
		// aggregator process deserializes and enqueues in place.
		stages = p.QueueStagesSFMono
		n.Ingress.Transfer(size, func(_, _ sim.Duration) {
			n.KernelExec("ingest", rxLat, rxCPU, func(_, _ sim.Duration) {
				agg.ExecAs("ingest", desLat+memcpyLat, desCPU+memcpyCPU, finish)
			})
		})
	case "LIFL":
		// Fig. 5 right: the gateway's consolidated one-time processing into
		// shared memory, then a 16-byte key pass.
		stages = p.QueueStagesLIFL
		n.Ingress.Transfer(size, func(_, _ sim.Duration) {
			shmLat, shmCPU := p.ShmWrite(size)
			n.KernelExec("gateway", rxLat, rxCPU, func(_, _ sim.Duration) {
				n.ExecAttributed("gateway", desLat+shmLat, desCPU+shmCPU, func(_, _ sim.Duration) {
					n.ExecFree("ebpf-sidecar", costmodel.Cycles(p.EBPFMetricsCycles))
					eng.After(p.ShmKeyPassLatency, func() { doneAt = eng.Now() })
				})
			})
		})
	case "SF-micro":
		// Fig. 5 middle-left: a persistent broker service between client
		// and aggregator; both legs cross the kernel, the broker stores and
		// forwards, the aggregator deserializes.
		stages = p.QueueStagesSFMicro
		br := broker.New(n)
		serLat, serCPU := p.Serialize(size, nT)
		txLat, txCPU := p.KernelTraversal(size)
		br.Subscribe("agg", func(msg broker.Message) {
			n.ExecAttributed("broker-leg", serLat, serCPU, func(_, _ sim.Duration) {
				n.KernelExec("broker-leg", txLat+rxLat, txCPU+rxCPU, func(_, _ sim.Duration) {
					agg.ExecAs("ingest", desLat, desCPU, finish)
				})
			})
		})
		n.Ingress.Transfer(size, func(_, _ sim.Duration) {
			n.KernelExec("ingest", rxLat, rxCPU, func(_, _ sim.Duration) {
				br.Publish("agg", size, nil)
			})
		})
	case "SL-B":
		// Fig. 5 middle-right: broker plus the function's sidecar in the
		// delivery path.
		stages = p.QueueStagesSLB
		br := broker.New(n)
		sc := sidecar.NewContainer(n, "agg")
		br.Subscribe("agg", func(msg broker.Message) {
			sc.Intercept(size, func() {
				agg.ExecAs("ingest", desLat, desCPU, finish)
			})
		})
		n.Ingress.Transfer(size, func(_, _ sim.Duration) {
			n.KernelExec("ingest", rxLat, rxCPU, func(_, _ sim.Duration) {
				br.Publish("agg", size, nil)
			})
		})
	default:
		panic("fig13: unknown setup " + setup)
	}
	if err := eng.RunUntilIdle(); err != nil {
		panic(err)
	}
	if doneAt == 0 {
		panic("fig13: transfer did not complete for " + setup)
	}
	return Fig13Row{
		Setup:    setup,
		Model:    m,
		CPU:      n.TotalCPUTime(),
		MemBytes: uint64(stages) * size,
		Delay:    doneAt,
	}
}

// FormatFig13 renders the three panels of Fig. 13.
func FormatFig13(rows []Fig13Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig.13 / Appendix F — message queuing overheads (single transfer)\n")
	fmt.Fprintf(&b, "%-10s %-12s %10s %12s %10s\n", "setup", "model", "cpu(s)", "mem(MB)", "delay(s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-12s %10.3f %12.1f %10.3f\n",
			r.Setup, r.Model.Name, r.CPU.Seconds(), float64(r.MemBytes)/(1<<20), r.Delay.Seconds())
	}
	return b.String()
}

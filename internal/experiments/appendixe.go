package experiments

import (
	"fmt"
	"strings"

	"repro/internal/aggcore"
	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/gateway"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/shm"
	"repro/internal/sim"
)

// AppendixEPoint is one probe of the offline MC calibration: offered
// arrival rate k against the measured per-update service time E.
type AppendixEPoint struct {
	ArrivalRate float64 // updates/sec offered
	ExecTime    sim.Duration
	Saturated   bool
}

// AppendixEResult is the derived maximum service capacity.
type AppendixEResult struct {
	Points []AppendixEPoint
	// MC = k′·E′ at the saturation knee (Appendix E).
	MC float64
}

// AppendixE reproduces the offline MC measurement: drive one worker node
// with an open-loop stream of ResNet-152 updates at increasing arrival
// rates and record the average commit→aggregated service time. When E
// inflates sharply the node is overloaded; MC = k′·E′ at that point. The
// Fig. 8 experiments hard-code MC=20 from the paper — this probe shows the
// calibrated simulator lands in the same regime.
//
// Each rate probe is an independent single-node simulation, so with
// Parallelism > 1 the sweep probes every rate concurrently and truncates
// at the first saturation knee; serially it walks rates in order and
// stops at the knee. Both paths report identical points.
func AppendixE() AppendixEResult {
	m := model.ResNet152
	var res AppendixEResult
	base := probeServiceTime(m, 0.5)
	knee := func(e sim.Duration) bool {
		// "A significant increase in E" — the paper's knee criterion. MC is
		// k′·E′ at the point the node becomes overloaded.
		return float64(e) > 2.0*float64(base)
	}
	var rates []float64
	for k := 1.0; k <= 12; k += 0.5 {
		rates = append(rates, k)
	}
	// One accumulation loop for both modes: `probe` either reads the
	// pre-computed concurrent sweep (speculating past the knee) or probes
	// lazily so the serial walk still stops at the knee.
	probe := func(i int) sim.Duration { return probeServiceTime(m, rates[i]) }
	if Parallelism > 1 {
		times := harness.Map(Parallelism, len(rates), probe)
		probe = func(i int) sim.Duration { return times[i] }
	}
	for i, k := range rates {
		e := probe(i)
		pt := AppendixEPoint{ArrivalRate: k, ExecTime: e}
		if knee(e) {
			pt.Saturated = true
			res.Points = append(res.Points, pt)
			res.MC = k * e.Seconds()
			break
		}
		res.Points = append(res.Points, pt)
	}
	if res.MC == 0 {
		last := res.Points[len(res.Points)-1]
		res.MC = last.ArrivalRate * last.ExecTime.Seconds()
	}
	return res
}

// probeParallelism is the aggregator pool the probe keeps busy: the
// two-level plan a fully loaded node runs (10 leaves, fan-in 2).
const probeParallelism = 10

// probeServiceTime offers `rate` updates/sec to one node for a fixed window
// and returns the mean commit→aggregated latency. Far past saturation the
// open-loop backlog is unbounded and can overrun the node's shm store
// mid-window; that is the overload signal, not a probe failure, so it is
// reported as fully wedged (the parallel sweep probes such rates before
// knowing where the knee is).
func probeServiceTime(m model.Spec, rate float64) (e sim.Duration) {
	defer func() {
		if r := recover(); r != nil {
			e = sim.Hour
		}
	}()
	eng := sim.NewEngine()
	p := costmodel.Default()
	cl := cluster.New(eng, sim.NewRNG(77), p, 1)
	n := cl.Nodes[0]
	gw := gateway.New(n)
	gateway.Connect(gw)
	alg := fedAvg()
	pool := modelPool(m)

	// A saturated node's hierarchy: 10 leaves that keep re-arming, so the
	// probe measures steady-state service, not a single round.
	leaves := make([]*aggcore.Aggregator, probeParallelism)
	var total sim.Duration
	var count int
	for i := range leaves {
		a := aggcore.New(fmt.Sprintf("probe-leaf%d", i), aggcore.RoleLeaf, n, alg, pool)
		a.Mode = aggcore.Eager
		a.OnComplete = nil
		a.Transport = rearmTransport{}
		a.Assign(aggcore.RoleLeaf, 1<<30, "", 0) // never Send: open-loop folding
		leaves[i] = a
	}
	// Open-loop Poisson-ish arrivals for a 2-minute window.
	window := 2 * sim.Minute
	rng := sim.NewRNG(78)
	delivered := make([]int, len(leaves))
	next := sim.Duration(0)
	i := 0
	for next < window {
		gap := sim.Duration(rng.ExpFloat64() / rate * float64(sim.Second))
		next += gap
		li := i % len(leaves)
		i++
		arrive := next
		eng.At(arrive, func() {
			leaf := leaves[li]
			submitted := eng.Now()
			// The full ingest path: NIC wire, kernel RX, gateway commit into
			// shm — the realistic bottleneck for 232 MB updates on 10 GbE.
			gw.ReceiveExternal(gateway.Update{
				Tensor: m.NewTensor(), Weight: 1, Size: m.Bytes(),
				NTensors: 1, Producer: "probe",
			}, func(key shm.Key) {
				obj, err := n.Shm.Get(key)
				if err != nil {
					panic(err)
				}
				delivered[li]++
				target := delivered[li] // FIFO: done hits this when ours folds
				leaf.Receive(aggcore.Update{
					Tensor: obj.Tensor, Weight: 1, Size: obj.Size, Key: key, Store: n.Shm,
				})
				var poll func()
				poll = func() {
					if leaf.Done() >= target {
						total += eng.Now() - submitted
						count++
						return
					}
					eng.After(50*sim.Millisecond, poll)
				}
				eng.After(50*sim.Millisecond, poll)
			})
		})
	}
	if err := eng.Run(window + 5*sim.Minute); err != nil {
		panic(err)
	}
	if count == 0 {
		return sim.Hour // fully wedged: report as saturated
	}
	return total / sim.Duration(count)
}

// rearmTransport is unreachable (goal never met) but satisfies the interface.
type rearmTransport struct{}

func (rearmTransport) SendResult(*aggcore.Aggregator, aggcore.Update, string) {}

// FormatAppendixE renders the probe like the appendix describes it.
func FormatAppendixE(r AppendixEResult) string {
	var b strings.Builder
	b.WriteString("Appendix E — offline maximum service capacity probe (ResNet-152, 1 node)\n")
	for _, pt := range r.Points {
		mark := ""
		if pt.Saturated {
			mark = "  <- saturation knee"
		}
		fmt.Fprintf(&b, "  k=%4.1f/s  E=%7.2fs%s\n", pt.ArrivalRate, pt.ExecTime.Seconds(), mark)
	}
	fmt.Fprintf(&b, "derived MC = %.0f concurrent updates (paper configures 20)\n", r.MC)
	return b.String()
}

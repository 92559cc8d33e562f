// The serverful baseline SF (Fig. 2(a)), following Google's FL stack and
// Meta's PAPAYA: a static, always-on hierarchy of aggregator processes on a
// fixed pool of provisioned nodes, direct gRPC channels between levels, and
// an in-memory queue inside each aggregator (the SF-mono queuing model of
// Fig. 5). Resources are charged by *allocation*: the reserved cores accrue
// cost around the clock whether or not updates are flowing — the
// inefficiency LIFL's elasticity removes (Fig. 9(b,d), Fig. 10).

package systems

import (
	"fmt"
	"sort"

	"repro/internal/aggcore"
	"repro/internal/fedavg"
	"repro/internal/netstack"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/tensor"

	"repro/internal/cluster"
)

// SF is the serverful system.
type SF struct {
	cfg     Config
	Eng     *sim.Engine
	RNG     *sim.RNG
	Cluster *cluster.Cluster

	global *tensor.Tensor
	algo   fedavg.Algorithm
	pool   *tensor.Pool

	// Static hierarchy, created once and kept warm forever.
	leaves  []*sfAgg
	middles map[int]*aggcore.Aggregator // per non-top node
	top     *aggcore.Aggregator

	// selector is the stateful gateway of Fig. 2(a): it mediates all
	// client↔aggregator communication (queuing, load balancing), so every
	// download and upload pays a pass through its process pool.
	selector *sim.Station

	rs *sfRound
}

// mediate charges one selector pass for a payload of the given size.
func (s *SF) mediate(size uint64, done func()) {
	lat, cpu := s.cfg.Params.KernelTraversal(size)
	s.Cluster.Nodes[s.cfg.TopNode].ExecFree("selector", cpu)
	s.selector.Submit(lat, func(_, _ sim.Duration) { done() })
}

type sfAgg struct {
	agg  *aggcore.Aggregator
	node int
}

type sfRound struct {
	round    int
	done     func(RoundResult)
	start    sim.Duration
	first    sim.Duration
	hasFirst bool
	injected bool
	cpu0     sim.Duration
	updates  int
	active   int
	nodes    int
	aggDone  sim.Duration
	finished bool
}

// NewSF assembles the static serverful hierarchy: SFLeaves leaf aggregators
// spread round-robin over the non-top nodes, one middle per leaf node, and
// the top on its dedicated node; every node's allocation is reserved
// immediately ("we always maximize the resource allocation to the
// aggregators and keep them warm throughout", §6.2).
func NewSF(eng *sim.Engine, cfg Config) *SF {
	cfg = cfg.withDefaults()
	rng := sim.NewRNG(cfg.Seed)
	cl := cluster.New(eng, rng, cfg.Params, cfg.Nodes)
	s := &SF{
		cfg:     cfg,
		Eng:     eng,
		RNG:     rng,
		Cluster: cl,
		global:  newGlobal(cfg.Model),
		algo:    fedavg.FedAvg{Workers: cfg.Workers},
		pool:    tensor.NewPool(cfg.Model.PhysLen(), cfg.Model.Params),
		middles: make(map[int]*aggcore.Aggregator),
	}
	aggNodes := s.aggNodes()
	for i := 0; i < cfg.SFLeaves; i++ {
		node := aggNodes[i%len(aggNodes)]
		// Serverful aggregation is batch-style: updates queue in the
		// monolith's in-memory queue and aggregate once the round's goal is
		// collected (lazy, Fig. 1(b)); eager timing is LIFL's §5.4 feature.
		a := aggcore.New(fmt.Sprintf("sf-leaf%d", i), aggcore.RoleLeaf, cl.Nodes[node], s.algo, s.pool)
		a.Mode = aggcore.Lazy
		a.Transport = (*sfTransport)(s)
		a.Tracer = cfg.Obs.Spans()
		a.TraceName = fmt.Sprintf("LF%d", i+1)
		s.leaves = append(s.leaves, &sfAgg{agg: a, node: node})
	}
	for _, node := range aggNodes {
		m := aggcore.New(fmt.Sprintf("sf-middle-n%d", node), aggcore.RoleMiddle, cl.Nodes[node], s.algo, s.pool)
		m.Mode = aggcore.Lazy
		m.Transport = (*sfTransport)(s)
		m.Tracer = cfg.Obs.Spans()
		m.TraceName = fmt.Sprintf("MID%d", node)
		s.middles[node] = m
	}
	s.top = aggcore.New("sf-top", aggcore.RoleTop, cl.Nodes[cfg.TopNode], s.algo, s.pool)
	s.top.Mode = aggcore.Lazy
	s.top.Tracer = cfg.Obs.Spans()
	s.top.TraceName = "Top"
	s.top.OnComplete = s.onGlobal
	// Always-on allocation sized to the static fleet ("we always maximize
	// the resource allocation to the aggregators"): CPU shares proportional
	// to the aggregators hosted, with a floor per node.
	totalAggs := float64(len(s.leaves) + len(s.middles) + 1)
	coresPerNode := 0.09 * totalAggs / float64(cfg.Nodes)
	if coresPerNode < 0.6 {
		coresPerNode = 0.6
	}
	if cfg.SFReservedCoresPerNode > 1 {
		coresPerNode = float64(cfg.SFReservedCoresPerNode)
	}
	for _, n := range cl.Nodes {
		n.Reserve("sf-aggregators", coresPerNode)
		n.AllocMem(uint64(coresPerNode * float64(cfg.Params.AggregatorMemBytes)))
	}
	s.selector = sim.NewStation(eng, "sf-selector", 1)
	return s
}

// aggNodes lists the nodes hosting leaves/middles (all but the top's).
func (s *SF) aggNodes() []int {
	var out []int
	for i := range s.Cluster.Nodes {
		if i != s.cfg.TopNode {
			out = append(out, i)
		}
	}
	if len(out) == 0 {
		out = []int{s.cfg.TopNode}
	}
	return out
}

// Name implements Service.
func (s *SF) Name() string { return "SF" }

// Global implements Service.
func (s *SF) Global() *tensor.Tensor { return s.global }

// SetGlobal implements Service (the cross-cell fabric's between-round
// model install).
func (s *SF) SetGlobal(t *tensor.Tensor) { s.global = t }

// CPUTime implements Service: allocation-based accounting — the always-on
// reservation is the cost, independent of utilization.
func (s *SF) CPUTime() sim.Duration { return s.Cluster.TotalReservedCPUTime() }

// ActiveAggregators implements Service: the static pool is always active.
func (s *SF) ActiveAggregators() int { return len(s.leaves) + len(s.middles) + 1 }

// RetireRound implements Service: a no-op. The serverful hierarchy is
// static — channels, queues and aggregator processes are round-agnostic,
// so there are no per-round control-plane records to evict (which is why
// SF's live heap was flat over long runs before eviction existed).
func (s *SF) RetireRound(int) {}

// Finalize implements Service.
func (s *SF) Finalize() {}

// RunRound implements Service. Jobs are assigned to leaves by static
// round-robin — the locality-agnostic mapping of a fixed serverful fleet.
func (s *SF) RunRound(round int, jobs []ClientJob, done func(RoundResult)) {
	if s.rs != nil && !s.rs.finished {
		panic("sf: overlapping rounds")
	}
	rs := &sfRound{round: round, done: done, start: s.Eng.Now(), cpu0: s.CPUTime(), injected: true}
	for _, j := range jobs {
		if !j.SkipBroadcast {
			rs.injected = false
			break
		}
	}
	s.rs = rs

	// Static round-robin job→leaf mapping.
	perLeaf := make([][]int, len(s.leaves))
	for i := range jobs {
		li := i % len(s.leaves)
		perLeaf[li] = append(perLeaf[li], i)
	}
	// Reset goals along the hierarchy for this round.
	activeLeaves := make(map[int]int) // node → active leaf count
	for li, leaf := range s.leaves {
		if len(perLeaf[li]) == 0 {
			continue
		}
		leaf.agg.Assign(aggcore.RoleLeaf, len(perLeaf[li]), s.middles[leaf.node].ID, round)
		activeLeaves[leaf.node]++
		rs.active++
	}
	nodesActive := make([]int, 0, len(activeLeaves))
	for node, cnt := range activeLeaves {
		s.middles[node].Assign(aggcore.RoleMiddle, cnt, s.top.ID, round)
		nodesActive = append(nodesActive, node)
		rs.active++
	}
	sort.Ints(nodesActive)
	if len(nodesActive) == 0 {
		panic("sf: round with no active leaves")
	}
	s.top.Assign(aggcore.RoleTop, len(nodesActive), "", round)
	rs.active++
	rs.nodes = len(nodesActive) + 1

	// Broadcast and uploads, both mediated by the selector (Fig. 2(a)).
	topEgress := s.Cluster.Nodes[s.cfg.TopNode].Egress
	size := s.cfg.Model.Bytes()
	for li, idxs := range perLeaf {
		leaf := s.leaves[li]
		for _, i := range idxs {
			j := jobs[i]
			arrive := func() {
				s.mediate(size, func() {
					s.ingest(rs, leaf, j, j.MakeUpdate(s.global))
				})
			}
			if j.SkipBroadcast {
				s.Eng.After(j.Delay, arrive)
				continue
			}
			s.mediate(size, func() {
				topEgress.Transfer(size, func(_, _ sim.Duration) {
					s.Eng.After(j.Delay, arrive)
				})
			})
		}
	}
}

// ingest receives one client upload at the leaf's node: NIC ingress +
// kernel RX, deserialize, then the in-memory enqueue copy of the monolithic
// queue (Fig. 5, SF-mono) before the leaf consumes it.
func (s *SF) ingest(rs *sfRound, leaf *sfAgg, j ClientJob, upd *tensor.Tensor) {
	n := s.Cluster.Nodes[leaf.node]
	size := upd.VirtualBytes()
	tr := netstack.Transfer{Size: size, NTensors: len(s.cfg.Model.Layers), Component: "sf-ingest"}
	netstack.IngressFromExternal(n, tr, func() {
		desLat, desCPU := n.P.Deserialize(size, tr.NTensors)
		qLat, qCPU := n.P.ShmWrite(size) // in-memory queue enqueue copy
		leaf.agg.ExecAs("sf-ingest", desLat+qLat, desCPU+qCPU, func(start, end sim.Duration) {
			s.cfg.Obs.Spans().Add(obs.Span{Actor: leaf.agg.TraceName, Kind: obs.KindNetwork, Start: start, End: end, Round: rs.round})
			if !rs.hasFirst {
				rs.hasFirst = true
				rs.first = s.Eng.Now()
			}
			rs.updates++
			leaf.agg.Receive(aggcore.Update{
				Tensor: upd, Weight: j.Weight, Size: size, Round: rs.round, Producer: j.ID,
			})
		})
	})
}

// sfTransport is direct gRPC between aggregators: loopback within a node,
// NIC across nodes. No brokers, no sidecars — but every hop pays full
// kernel networking and (de)serialization.
type sfTransport SF

// SendResult implements aggcore.Transport.
func (t *sfTransport) SendResult(src *aggcore.Aggregator, out aggcore.Update, dstID string) {
	s := (*SF)(t)
	dst, dstNode := s.find(dstID)
	if dst == nil {
		panic("sf transport: unknown destination " + dstID)
	}
	srcNode := s.nodeIndexOf(src.Node)
	p := src.Node.P
	nT := len(s.cfg.Model.Layers)
	startT := s.Eng.Now()
	serLat, serCPU := p.Serialize(out.Size, nT)
	txLat, txCPU := p.KernelTraversal(out.Size)
	rxLat, rxCPU := p.KernelTraversal(out.Size)
	desLat, desCPU := p.Deserialize(out.Size, nT)
	dn := s.Cluster.Nodes[dstNode]
	recvHalf := func() {
		dn.KernelExec("sf-transport", rxLat, rxCPU, func(_, _ sim.Duration) {
			dst.ExecAs("sf-transport", desLat, desCPU, func(_, _ sim.Duration) {
				s.cfg.Obs.Spans().Add(obs.Span{Actor: dst.TraceName, Kind: obs.KindNetwork, Start: startT, End: s.Eng.Now(), Round: out.Round})
				dst.Receive(out)
			})
		})
	}
	src.ExecAs("sf-transport", serLat, serCPU, func(_, _ sim.Duration) {
		src.Node.KernelExec("sf-transport", txLat, txCPU, func(_, _ sim.Duration) {
			if srcNode == dstNode {
				recvHalf()
				return
			}
			src.Node.Egress.Transfer(out.Size, func(_, _ sim.Duration) {
				dn.Ingress.Transfer(out.Size, func(_, _ sim.Duration) {
					recvHalf()
				})
			})
		})
	})
}

// find resolves an aggregator ID to its instance and node.
func (s *SF) find(id string) (*aggcore.Aggregator, int) {
	if id == s.top.ID {
		return s.top, s.cfg.TopNode
	}
	for node, m := range s.middles {
		if m.ID == id {
			return m, node
		}
	}
	for _, l := range s.leaves {
		if l.agg.ID == id {
			return l.agg, l.node
		}
	}
	return nil, -1
}

func (s *SF) nodeIndexOf(n *cluster.Node) int {
	for i, c := range s.Cluster.Nodes {
		if c == n {
			return i
		}
	}
	panic("sf: foreign node")
}

// onGlobal installs and evaluates the new global model.
func (s *SF) onGlobal(top *aggcore.Aggregator, out aggcore.Update) {
	rs := s.rs
	next, err := s.cfg.ServerOpt.Apply(s.global, out.Tensor)
	if err != nil {
		panic(fmt.Sprintf("sf: global update: %v", err))
	}
	s.pool.Put(out.Tensor) // Apply kept no reference; the top was its only consumer
	s.global = next
	rs.aggDone = s.Eng.Now()
	eval := top.Node.P.EvalTime(s.cfg.Model.Bytes())
	top.ExecAs("aggregator", eval, eval, func(start, end sim.Duration) {
		s.cfg.Obs.Spans().Add(obs.Span{Actor: top.TraceName, Kind: obs.KindEval, Start: start, End: end, Round: rs.round})
		rs.finished = true
		end2 := s.Eng.Now()
		act := rs.aggDone - rs.start
		if !rs.injected && rs.hasFirst {
			act = rs.aggDone - rs.first
		}
		if rs.done != nil {
			rs.done(RoundResult{
				Round:        rs.round,
				Start:        rs.start,
				FirstArrival: rs.first,
				End:          end2,
				ACT:          act,
				Updates:      rs.updates,
				AggsCreated:  0,
				AggsActive:   rs.active,
				NodesUsed:    rs.nodes,
				CPUTime:      s.CPUTime() - rs.cpu0,
			})
		}
	})
}

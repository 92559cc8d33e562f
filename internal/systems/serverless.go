// The serverless baseline SL (Fig. 2(b)), following FedKeeper and AdaFed on
// a Knative-like platform: aggregators are functions with container-based
// sidecars, all chaining is indirect through a per-node message broker,
// load balancing is least-connection, scaling is reactive (cold starts land
// on the critical path and cascade up the hierarchy), and aggregation is
// lazy. This is the "+SC" / "+MB" data plane of Fig. 7 plus the simplistic
// orchestration of §2.3.

package systems

import (
	"fmt"
	"sort"

	"repro/internal/aggcore"
	"repro/internal/autoscaler"
	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/fedavg"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/runtime"
	"repro/internal/sidecar"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// SL is the serverless baseline system.
type SL struct {
	cfg     Config
	Eng     *sim.Engine
	RNG     *sim.RNG
	Cluster *cluster.Cluster
	Brokers []*broker.Broker
	Mgrs    []*runtime.Manager

	global *tensor.Tensor
	algo   fedavg.Algorithm
	pool   *tensor.Pool

	// sidecars attach to sandboxes (one per pod, reused with it), keyed by
	// sandbox ID. aggSidecar resolves the current aggregator's sidecar.
	sidecars   map[string]*sidecar.Container
	aggSidecar map[string]*sidecar.Container // aggregator ID → its pod's sidecar

	rs *slRound
	// hist retains closed rounds' state until RetireRound evicts them.
	hist map[int]*slRound
}

type slAgg struct {
	agg  *aggcore.Aggregator
	node int
	sb   *runtime.Sandbox
}

type slRound struct {
	round    int
	jobs     []ClientJob
	done     func(RoundResult)
	start    sim.Duration
	first    sim.Duration
	hasFirst bool
	injected bool

	assignNode []int
	plans      map[int]autoscaler.Plan
	leafFor    map[int][]string
	leafRR     map[int]int
	topGoal    int

	bind    map[string]*slAgg
	started map[string]bool

	cpu0     sim.Duration
	created0 uint64
	updates  int
	aggDone  sim.Duration
	finished bool
}

// NewSL assembles the baseline on a fresh cluster: one broker per node
// (persistent, stateful) plus the runtime managers.
func NewSL(eng *sim.Engine, cfg Config) *SL {
	cfg = cfg.withDefaults()
	cfg.Params.KeepAliveIdle = cfg.SLKeepAlive
	// Knative-style pods (user container + queue-proxy injection) cold-start
	// far slower than LIFL's lightweight SPRIGHT-style functions, and burn
	// more CPU doing it (§2.3, Fig. 10(b) churn).
	cfg.Params.ColdStartDelay = 4 * cfg.Params.ColdStartDelay
	cfg.Params.ColdStartCycles = 4 * cfg.Params.ColdStartCycles
	cfg.Params.SidecarIdleCPUFrac = 0.12
	rng := sim.NewRNG(cfg.Seed)
	cl := cluster.New(eng, rng, cfg.Params, cfg.Nodes)
	s := &SL{
		cfg:        cfg,
		Eng:        eng,
		RNG:        rng,
		Cluster:    cl,
		global:     newGlobal(cfg.Model),
		algo:       fedavg.FedAvg{Workers: cfg.Workers},
		pool:       tensor.NewPool(cfg.Model.PhysLen(), cfg.Model.Params),
		sidecars:   make(map[string]*sidecar.Container),
		aggSidecar: make(map[string]*sidecar.Container),
		hist:       make(map[int]*slRound),
	}
	for _, n := range cl.Nodes {
		s.Brokers = append(s.Brokers, broker.New(n))
		s.Mgrs = append(s.Mgrs, runtime.NewManager(n))
		// The broker is an always-on stateful component with a resident
		// footprint (Appendix F.1's stateful tax).
		n.AllocMem(256 << 20)
	}
	return s
}

// Name implements Service.
func (s *SL) Name() string { return "SL" }

// Global implements Service.
func (s *SL) Global() *tensor.Tensor { return s.global }

// SetGlobal implements Service (the cross-cell fabric's between-round
// model install).
func (s *SL) SetGlobal(t *tensor.Tensor) { s.global = t }

// CPUTime implements Service: usage-based, including sidecar idle drain,
// broker relays, and cold-start CPU (all attributed on the nodes).
func (s *SL) CPUTime() sim.Duration {
	s.Finalize()
	return s.Cluster.TotalCPUTime()
}

// ActiveAggregators implements Service.
func (s *SL) ActiveAggregators() int {
	n := 0
	for _, m := range s.Mgrs {
		n += m.LiveCount()
	}
	return n
}

// Finalize settles sidecar idle CPU and sandbox runtime upkeep.
func (s *SL) Finalize() {
	for _, sc := range s.sidecars {
		sc.Finalize()
	}
	for _, m := range s.Mgrs {
		m.SettleUpkeep()
	}
}

func (s *SL) createdTotal() uint64 {
	var n uint64
	for _, m := range s.Mgrs {
		n += m.Created
	}
	return n
}

// RunRound implements Service.
func (s *SL) RunRound(round int, jobs []ClientJob, done func(RoundResult)) {
	if s.rs != nil && !s.rs.finished {
		panic("sl: overlapping rounds")
	}
	rs := &slRound{
		round:    round,
		jobs:     jobs,
		done:     done,
		start:    s.Eng.Now(),
		bind:     make(map[string]*slAgg),
		started:  make(map[string]bool),
		plans:    make(map[int]autoscaler.Plan),
		leafFor:  make(map[int][]string),
		leafRR:   make(map[int]int),
		cpu0:     s.CPUTime(),
		created0: s.createdTotal(),
		injected: true,
	}
	for _, j := range jobs {
		if !j.SkipBroadcast {
			rs.injected = false
			break
		}
	}
	s.rs = rs
	s.hist[round] = rs
	for _, m := range s.Mgrs {
		m.ReapIdle()
	}

	// Least-connection load balancing across nodes (WorstFit).
	states := make([]*placement.NodeState, 0, len(s.Cluster.Nodes))
	for _, n := range s.Cluster.Nodes {
		states = append(states, &placement.NodeState{
			Name: n.Name, MC: s.cfg.MC,
			ExecTime: s.cfg.Params.AggregateOne(s.cfg.Model.Bytes()),
		})
	}
	assign, err := placement.WorstFit{}.PlaceIndexed(len(jobs), states)
	if err != nil {
		panic(fmt.Sprintf("sl: placement: %v", err))
	}
	rs.assignNode = expandAssignment(assign, len(jobs))

	// Threshold autoscaler sizes the leaf pool per node from the observed
	// in-flight load; chain levels above scale reactively on first demand.
	th := autoscaler.Threshold{Target: s.cfg.SLTargetConcurrency, Min: 0}
	rs.topGoal = 0
	for node, c := range assign {
		if c == 0 {
			continue
		}
		leaves := th.Desired(c)
		if leaves < 1 {
			leaves = 1
		}
		p := autoscaler.Plan{Node: s.Cluster.Nodes[node].Name, Updates: c, Leaves: leaves, Middle: leaves > 1}
		p.LeafGoals = make([]int, leaves)
		rem := c
		for i := range p.LeafGoals {
			g := (rem + (leaves - i) - 1) / (leaves - i)
			p.LeafGoals[i] = g
			rem -= g
		}
		rs.plans[node] = p
		if p.Middle {
			rs.topGoal++
		} else {
			rs.topGoal += p.Leaves
		}
		for i := 0; i < leaves; i++ {
			rs.leafFor[node] = append(rs.leafFor[node], fmt.Sprintf("slr%d-n%d-leaf%d", round, node, i))
		}
	}
	if rs.topGoal == 0 {
		rs.topGoal = 1
	}

	// Broadcast and uploads. In the serverless architecture every client
	// download also flows through the message broker (Fig. 2(b): the broker
	// mediates all aggregator↔client communication), which serializes model
	// distribution through the broker process.
	topEgress := s.Cluster.Nodes[s.cfg.TopNode].Egress
	topBroker := s.Brokers[s.cfg.TopNode]
	size := s.cfg.Model.Bytes()
	for i, job := range jobs {
		i, job := i, job
		node := rs.assignNode[i]
		arrive := func() {
			s.ingest(rs, node, job, job.MakeUpdate(s.global))
		}
		if job.SkipBroadcast {
			s.Eng.After(job.Delay, arrive)
			continue
		}
		// Two broker passes per download: model store → broker, then
		// broker → client (store-and-forward both ways).
		topBroker.Mediate(size, func() {
			topBroker.Mediate(size, func() {
				topEgress.Transfer(size, func(_, _ sim.Duration) {
					s.Eng.After(job.Delay, arrive)
				})
			})
		})
	}
}

// RetireRound implements Service: evict every control-plane record for
// rounds <= last. The round's broker topics (subscriber closures and queue
// slots) are retired on every node's broker, the name → sidecar bindings
// dropped, and the round state unreferenced. Sidecars themselves live and
// die with their pods (OnReclaim), and sandboxes are never terminated here
// — eviction is bookkeeping, not schedule.
func (s *SL) RetireRound(last int) {
	var rounds []int
	for r, rs := range s.hist {
		if r <= last && rs.finished {
			rounds = append(rounds, r)
		}
	}
	sort.Ints(rounds)
	for _, r := range rounds {
		s.evictRound(s.hist[r])
		delete(s.hist, r)
	}
	s.cfg.Obs.Counter("ctrl/rounds_evicted", obs.Volatile).Add(uint64(len(rounds)))
}

// evictRound retires one closed round's broker topics and bindings.
func (s *SL) evictRound(rs *slRound) {
	names := s.roundNames(rs)
	for _, name := range names {
		for _, b := range s.Brokers {
			b.RetireTopic(name)
		}
		delete(s.aggSidecar, name)
	}
	s.cfg.Obs.Counter("ctrl/topics_retired", obs.Volatile).Add(uint64(len(names)))
}

// roundNames lists a round's logical aggregator names in deterministic
// order: each planned node's leaves then its middle (sorted by node
// index), and the top last.
func (s *SL) roundNames(rs *slRound) []string {
	nodes := make([]int, 0, len(rs.plans))
	for nd := range rs.plans {
		nodes = append(nodes, nd)
	}
	sort.Ints(nodes)
	names := make([]string, 0, 2*len(nodes)+1)
	for _, nd := range nodes {
		names = append(names, rs.leafFor[nd]...)
		if rs.plans[nd].Middle {
			names = append(names, s.middleName(rs.round, nd))
		}
	}
	return append(names, s.topName(rs.round))
}

func (s *SL) middleName(round, node int) string { return fmt.Sprintf("slr%d-n%d-middle", round, node) }
func (s *SL) topName(round int) string          { return fmt.Sprintf("slr%d-top", round) }

func (s *SL) consumerOf(rs *slRound, node int) string {
	if rs.plans[node].Middle {
		return s.middleName(rs.round, node)
	}
	return s.topName(rs.round)
}

// ingest: client upload → node ingress + kernel RX → broker (buffers the
// payload) → destination leaf's topic. The leaf is provisioned reactively
// on first traffic.
func (s *SL) ingest(rs *slRound, node int, j ClientJob, upd *tensor.Tensor) {
	n := s.Cluster.Nodes[node]
	size := upd.VirtualBytes()
	rxLat, rxCPU := n.P.KernelTraversal(size)
	n.Ingress.Transfer(size, func(_, _ sim.Duration) {
		n.KernelExec("sl-ingest", rxLat, rxCPU, func(_, _ sim.Duration) {
			if !rs.hasFirst {
				rs.hasFirst = true
				rs.first = s.Eng.Now()
			}
			rs.updates++
			leaves := rs.leafFor[node]
			name := leaves[rs.leafRR[node]%len(leaves)]
			rs.leafRR[node]++
			s.ensure(rs, node, name)
			s.Brokers[node].Publish(name, size, brokerPayload{
				u: aggcore.Update{Tensor: upd, Weight: j.Weight, Size: size, Round: rs.round, Producer: j.ID},
			})
		})
	})
}

type brokerPayload struct {
	u aggcore.Update
}

// ensure reactively provisions the named aggregator (and its sidecar) on
// the node if not already started, then subscribes it to its broker topic.
func (s *SL) ensure(rs *slRound, node int, name string) {
	if rs.started[name] {
		return
	}
	rs.started[name] = true
	s.cfg.Obs.Counter("ctrl/topics_created", obs.Det).Inc()
	role, goal, dst := s.roleFor(rs, node, name)
	n := s.Cluster.Nodes[node]
	agg := aggcore.New(name, role, n, s.algo, s.pool)
	agg.Mode = aggcore.Lazy
	agg.Tracer = s.cfg.Obs.Spans()
	agg.TraceName = name
	agg.Assign(role, goal, dst, rs.round)
	agg.Transport = (*slTransport)(s)
	if role == aggcore.RoleTop {
		agg.OnComplete = s.onGlobal
		agg.TraceName = "Top"
	}
	la := &slAgg{agg: agg, node: node}
	sb := s.Mgrs[node].Start(role.String(), func(sb *runtime.Sandbox) {
		rs.bind[name] = la
		// The sidecar lives and dies with the pod: a warm-reused sandbox
		// keeps its sidecar, a fresh one gets a new container.
		sc, ok := s.sidecars[sb.ID]
		if !ok {
			sc = sidecar.NewContainer(n, sb.ID)
			s.sidecars[sb.ID] = sc
		}
		s.aggSidecar[name] = sc
		// Subscribing drains everything the broker buffered while the
		// function cold-started; each delivery passes the sidecar and pays
		// deserialization before reaching the function.
		s.Brokers[node].Subscribe(name, func(m broker.Message) {
			pl := m.Payload.(brokerPayload)
			sc.Intercept(m.Size, func() {
				desLat, desCPU := n.P.Deserialize(m.Size, len(s.cfg.Model.Layers))
				agg.ExecAs("sl-ingest", desLat, desCPU, func(start, end sim.Duration) {
					s.cfg.Obs.Spans().Add(obs.Span{Actor: agg.TraceName, Kind: obs.KindNetwork, Start: start, End: end, Round: rs.round})
					agg.Receive(pl.u)
				})
			})
		})
		agg.NotifyReady()
	})
	la.sb = sb
	agg.Sandbox = sb
	sb.Pinned = true // owes this round an output (cleared on Send)
	sb.OnReclaim = func(dead *runtime.Sandbox) {
		s.Brokers[node].Unsubscribe(name)
		if sc, ok := s.sidecars[dead.ID]; ok {
			sc.Stop()
			delete(s.sidecars, dead.ID)
		}
		delete(s.aggSidecar, name)
	}
}

// roleFor resolves a logical name.
func (s *SL) roleFor(rs *slRound, node int, name string) (aggcore.Role, int, string) {
	if name == s.topName(rs.round) {
		return aggcore.RoleTop, rs.topGoal, ""
	}
	for nd, p := range rs.plans {
		if name == s.middleName(rs.round, nd) {
			return aggcore.RoleMiddle, p.Leaves, s.topName(rs.round)
		}
		for i, ln := range rs.leafFor[nd] {
			if ln == name {
				return aggcore.RoleLeaf, p.LeafGoals[i], s.consumerOf(rs, nd)
			}
		}
	}
	panic(fmt.Sprintf("sl: unknown logical name %q", name))
}

// nodeOfName resolves where a logical name runs (middles stay on their
// node, the top lives on the configured top node).
func (s *SL) nodeOfName(rs *slRound, name string) int {
	if name == s.topName(rs.round) {
		return s.cfg.TopNode
	}
	for nd := range rs.plans {
		if name == s.middleName(rs.round, nd) {
			return nd
		}
		for _, ln := range rs.leafFor[nd] {
			if ln == name {
				return nd
			}
		}
	}
	panic(fmt.Sprintf("sl: unknown logical name %q", name))
}

// slTransport chains functions indirectly: source sidecar interception,
// kernel serialize+TX into the broker, store-and-forward, then (possibly a
// NIC crossing and) kernel RX + destination sidecar + deserialize.
type slTransport SL

// SendResult implements aggcore.Transport.
func (t *slTransport) SendResult(src *aggcore.Aggregator, out aggcore.Update, dstID string) {
	s := (*SL)(t)
	rs := s.rs
	srcNode := s.nodeIndexOf(src.Node)
	dstNode := s.nodeOfName(rs, dstID)
	n := src.Node
	nT := len(s.cfg.Model.Layers)
	startT := s.Eng.Now()

	// Outbound: source sidecar intercept, then serialize + kernel TX.
	sc := s.aggSidecar[src.ID]
	if sc == nil {
		panic("sl transport: no sidecar for " + src.ID)
	}
	sc.Intercept(out.Size, func() {
		serLat, serCPU := n.P.Serialize(out.Size, nT)
		txLat, txCPU := n.P.KernelTraversal(out.Size)
		src.ExecAs("sl-transport", serLat, serCPU, func(_, _ sim.Duration) {
			n.KernelExec("sl-transport", txLat, txCPU, func(_, _ sim.Duration) {
				s.cfg.Obs.Spans().Add(obs.Span{Actor: src.TraceName, Kind: obs.KindNetwork, Start: startT, End: s.Eng.Now(), Round: out.Round})
				forward := func(onNode int) {
					s.ensure(rs, onNode, dstID)
					s.Brokers[onNode].Publish(dstID, out.Size, brokerPayload{u: out})
				}
				if srcNode == dstNode {
					forward(srcNode)
					return
				}
				// Cross-node: the broker hands off over the NIC to the
				// destination node's broker, paying kernel both sides.
				rxLat, rxCPU := n.P.KernelTraversal(out.Size)
				n.Egress.Transfer(out.Size, func(_, _ sim.Duration) {
					dn := s.Cluster.Nodes[dstNode]
					dn.Ingress.Transfer(out.Size, func(_, _ sim.Duration) {
						dn.KernelExec("sl-transport", rxLat, rxCPU, func(_, _ sim.Duration) {
							forward(dstNode)
						})
					})
				})
			})
		})
	})
}

func (s *SL) nodeIndexOf(n *cluster.Node) int {
	for i, c := range s.Cluster.Nodes {
		if c == n {
			return i
		}
	}
	panic("sl: foreign node")
}

// onGlobal installs and evaluates the new global model.
func (s *SL) onGlobal(top *aggcore.Aggregator, out aggcore.Update) {
	rs := s.rs
	next, err := s.cfg.ServerOpt.Apply(s.global, out.Tensor)
	if err != nil {
		panic(fmt.Sprintf("sl: global update: %v", err))
	}
	s.pool.Put(out.Tensor) // Apply kept no reference; the top was its only consumer
	s.global = next
	rs.aggDone = s.Eng.Now()
	eval := top.Node.P.EvalTime(s.cfg.Model.Bytes())
	top.ExecAs("aggregator", eval, eval, func(start, end sim.Duration) {
		s.cfg.Obs.Spans().Add(obs.Span{Actor: top.TraceName, Kind: obs.KindEval, Start: start, End: end, Round: rs.round})
		rs.finished = true
		now := s.Eng.Now()
		act := rs.aggDone - rs.start
		if !rs.injected && rs.hasFirst {
			act = rs.aggDone - rs.first
		}
		nodes := make(map[int]bool)
		for _, nd := range rs.assignNode {
			nodes[nd] = true
		}
		nodes[s.cfg.TopNode] = true
		if rs.done != nil {
			rs.done(RoundResult{
				Round:        rs.round,
				Start:        rs.start,
				FirstArrival: rs.first,
				End:          now,
				ACT:          act,
				Updates:      rs.updates,
				AggsCreated:  int(s.createdTotal() - rs.created0),
				AggsActive:   len(rs.bind),
				NodesUsed:    len(nodes),
				CPUTime:      s.CPUTime() - rs.cpu0,
			})
		}
	})
}

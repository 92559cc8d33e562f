// The LIFL system assembly: shared-memory data plane + eBPF sidecars +
// per-node gateways + the orchestration heuristics of §5, with each feature
// individually switchable (Flags) for the Fig. 8 ablation. With all flags
// off this assembly is exactly the paper's SL-H baseline: LIFL's data plane
// under a conventional serverless control plane (least-connection load
// balancing, reactive scaling, lazy aggregation, no reuse).

package systems

import (
	"fmt"
	"sort"

	"repro/internal/aggcore"
	"repro/internal/autoscaler"
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/coordinator"
	"repro/internal/costmodel"
	"repro/internal/ebpf"
	"repro/internal/fedavg"
	"repro/internal/gateway"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/runtime"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/topology"
)

// LIFL is the full system of Fig. 3.
type LIFL struct {
	cfg     Config
	Eng     *sim.Engine
	RNG     *sim.RNG
	Cluster *cluster.Cluster
	GWs     []*gateway.Gateway
	Mgrs    []*runtime.Manager
	Metrics *metrics.Server

	// ForcePlan, when set, overrides the hierarchy planner per node —
	// used by microbenchmarks that pin the paper's exact topology (e.g.
	// Fig. 7(c): four leaves feeding the top directly).
	ForcePlan func(node string, updates int) autoscaler.Plan

	global *tensor.Tensor
	algo   fedavg.Algorithm
	// pool recycles the data plane's host buffers (accumulators and
	// aggregates) round over round.
	pool  *tensor.Pool
	reuse coordinator.ReusePicker

	// Ckpt is the external persistent store for Appendix-B model
	// checkpoints, written asynchronously every CheckpointPeriodRounds.
	Ckpt *checkpoint.Store

	rs *liflRound
	// hist retains closed rounds' state until RetireRound evicts them —
	// the control-plane record window that keeps mid-round failover
	// replay and checkpoint-restore working while bounding live heap.
	hist map[int]*liflRound

	// TotalConversions counts §5.3 role conversions across rounds.
	TotalConversions uint64
}

// liflAgg couples an aggregator with its host.
type liflAgg struct {
	agg  *aggcore.Aggregator
	node int
	sb   *runtime.Sandbox
}

// liflRound is the in-flight round state.
type liflRound struct {
	round    int
	jobs     []ClientJob
	done     func(RoundResult)
	start    sim.Duration
	first    sim.Duration
	hasFirst bool
	injected bool // all jobs skip broadcast (ACT measured from round start)

	assignNode []int // job index → node index
	plans      map[int]autoscaler.Plan
	topGoal    int
	topNode    int // resolved top host (may change via reuse binding)
	topBound   bool
	aggDone    sim.Duration // global model installed (ACT endpoint, pre-eval)

	bind    map[string]*liflAgg         // logical name → instance
	pending map[string][]aggcore.Update // queued for unbound/unready names
	tag     *topology.TAG               // Appendix-D description of this round
	leafFor map[int][]string            // node → leaf names (dispatch ring)
	leafRR  map[int]int                 // node → round-robin cursor
	started map[string]bool             // logical names with provisioning begun

	cpu0     sim.Duration
	created0 uint64
	updates  int
	finished bool
}

// NewLIFL assembles the system on a fresh cluster.
func NewLIFL(eng *sim.Engine, cfg Config) *LIFL {
	cfg = cfg.withDefaults()
	rng := sim.NewRNG(cfg.Seed)
	cl := cluster.New(eng, rng, cfg.Params, cfg.Nodes)
	s := &LIFL{
		cfg:     cfg,
		Eng:     eng,
		RNG:     rng,
		Cluster: cl,
		Metrics: metrics.NewServer(eng),
		global:  newGlobal(cfg.Model),
		algo:    fedavg.FedAvg{Workers: cfg.Workers},
		pool:    tensor.NewPool(cfg.Model.PhysLen(), cfg.Model.Params),
		Ckpt:    checkpoint.NewStore(eng, 1e9), // 1 GB/s uplink to storage
		hist:    make(map[int]*liflRound),
	}
	for _, n := range cl.Nodes {
		s.GWs = append(s.GWs, gateway.New(n))
		s.Mgrs = append(s.Mgrs, runtime.NewManager(n))
	}
	gateway.Connect(s.GWs...)
	return s
}

// Name implements Service.
func (s *LIFL) Name() string {
	if s.cfg.Flags == (Flags{}) {
		return "SL-H"
	}
	return "LIFL"
}

// Global implements Service.
func (s *LIFL) Global() *tensor.Tensor { return s.global }

// SetGlobal implements Service (the cross-cell fabric's between-round
// model install).
func (s *LIFL) SetGlobal(t *tensor.Tensor) { s.global = t }

// CPUTime implements Service (usage-based accounting, including the
// continuous runtime upkeep of live sandboxes).
func (s *LIFL) CPUTime() sim.Duration {
	s.Finalize()
	return s.Cluster.TotalCPUTime()
}

// ActiveAggregators implements Service.
func (s *LIFL) ActiveAggregators() int {
	n := 0
	for _, m := range s.Mgrs {
		n += m.LiveCount()
	}
	return n
}

// Finalize implements Service. Besides settling deferred upkeep it
// publishes the eBPF sidecar load signals: run/redirect/drop totals are
// virtual-time deterministic, while live sockmap occupancy depends on
// how aggressively the caller retired rounds (Volatile).
func (s *LIFL) Finalize() {
	for _, m := range s.Mgrs {
		m.SettleUpkeep()
	}
	if s.cfg.Obs == nil {
		return
	}
	var runs, redirects, drops, entries uint64
	for _, n := range s.Cluster.Nodes {
		runs += n.SKMSG.Runs
		redirects += n.SKMSG.Redirects
		drops += n.SKMSG.Drops
		entries += uint64(n.SockMap.Len())
	}
	s.cfg.Obs.Gauge("ebpf/skmsg_runs", obs.Det).Set(float64(runs))
	s.cfg.Obs.Gauge("ebpf/redirects", obs.Det).Set(float64(redirects))
	s.cfg.Obs.Gauge("ebpf/drops", obs.Det).Set(float64(drops))
	s.cfg.Obs.Gauge("ebpf/sockmap_entries", obs.Volatile).Set(float64(entries))
}

// createdTotal sums cold creations across nodes.
func (s *LIFL) createdTotal() uint64 {
	var n uint64
	for _, m := range s.Mgrs {
		n += m.Created
	}
	return n
}

// mode returns the aggregation timing selected by flag ④.
func (s *LIFL) mode() aggcore.Mode {
	if s.cfg.Flags.Eager {
		return aggcore.Eager
	}
	return aggcore.Lazy
}

// RunRound implements Service.
func (s *LIFL) RunRound(round int, jobs []ClientJob, done func(RoundResult)) {
	if s.rs != nil && !s.rs.finished {
		panic("lifl: overlapping rounds (synchronous FL)")
	}
	rs := &liflRound{
		round:    round,
		jobs:     jobs,
		done:     done,
		start:    s.Eng.Now(),
		topNode:  s.cfg.TopNode,
		bind:     make(map[string]*liflAgg),
		pending:  make(map[string][]aggcore.Update),
		leafFor:  make(map[int][]string),
		leafRR:   make(map[int]int),
		started:  make(map[string]bool),
		plans:    make(map[int]autoscaler.Plan),
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

	// Reap expired warm instances at round boundaries (the agent's cycle).
	for _, m := range s.Mgrs {
		m.ReapIdle()
	}

	s.place(rs)
	s.plan(rs)
	if s.cfg.Flags.HierarchyPlan {
		s.prestart(rs)
	}
	s.launchClients(rs)
}

// place runs the round's load balancing (§5.1): BestFit under flag ①,
// otherwise the least-connection-equivalent WorstFit of SL-H.
func (s *LIFL) place(rs *liflRound) {
	states := make([]*placement.NodeState, 0, len(s.Cluster.Nodes))
	for _, n := range s.Cluster.Nodes {
		// Known fidelity bug: only Meter("arrivals") is ever marked (in
		// ingest), never the per-node "arrivals@<node>" read here, so
		// §5.1's k_{i,t} is always 0. Marking the per-node meter changes
		// placement and so every reference fingerprint; the fix waits for
		// a deliberate reference refresh (ROADMAP open items).
		states = append(states, &placement.NodeState{
			Name:     n.Name,
			MC:       s.cfg.MC,
			Arrival:  s.Metrics.Meter("arrivals@"+n.Name, sim.Minute).Rate(),
			ExecTime: s.cfg.Params.AggregateOne(s.cfg.Model.Bytes()),
		})
	}
	var policy placement.Policy = placement.WorstFit{}
	if s.cfg.Flags.LocalityPlacement {
		policy = placement.BestFit{}
	}
	assign, err := policy.PlaceIndexed(len(rs.jobs), states)
	if err != nil {
		panic(fmt.Sprintf("lifl: placement: %v", err))
	}
	// Expand counts into per-job node assignment, clustering consecutive
	// jobs on the same node (the mapping is what in-place queuing acts on).
	rs.assignNode = expandAssignment(assign, len(rs.jobs))
}

// expandAssignment flattens a node-indexed placement into per-job node
// indices, clustering consecutive jobs on the same node in node order (the
// same order the name-keyed map produced when walked by sorted node index).
func expandAssignment(a placement.Assignment, jobs int) []int {
	out := make([]int, jobs)
	j := 0
	for idx, c := range a {
		for k := 0; k < c && j < jobs; k++ {
			out[j] = idx
			j++
		}
	}
	return out
}

// plan sizes the per-node hierarchy (§5.2) and the top goal.
func (s *LIFL) plan(rs *liflRound) {
	counts := make(map[int]int)
	for _, n := range rs.assignNode {
		counts[n]++
	}
	fanIn := s.cfg.Params.LeafFanIn
	rs.topGoal = 0
	for node, c := range counts {
		name := s.Cluster.Nodes[node].Name
		var p autoscaler.Plan
		if s.ForcePlan != nil {
			p = s.ForcePlan(name, c)
		} else {
			p = autoscaler.PlanNode(name, c, fanIn)
		}
		rs.plans[node] = p
		if p.Middle {
			rs.topGoal++
		} else {
			rs.topGoal += p.Leaves
		}
		for i := 0; i < p.Leaves; i++ {
			rs.leafFor[node] = append(rs.leafFor[node], s.leafName(rs.round, node, i))
		}
	}
	if rs.topGoal == 0 {
		rs.topGoal = 1
	}
	rs.tag = s.buildTAG(rs)
	if err := rs.tag.Validate(); err != nil {
		panic(fmt.Sprintf("lifl: planner produced an invalid hierarchy: %v", err))
	}
}

// buildTAG materializes the round's Topology Abstraction Graph (Appendix D):
// one vertex per planned aggregator with the node name as the groupBy
// placement-affinity label, and channels along the aggregation tree. The
// routing manager derives sockmap/gateway routes from this description; here
// it also serves as a structural check on the planner.
func (s *LIFL) buildTAG(rs *liflRound) *topology.TAG {
	g := topology.New()
	top := s.topName(rs.round)
	topGroup := s.Cluster.Nodes[rs.topNode].Name
	must := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("lifl: TAG: %v", err))
		}
	}
	must(g.AddVertex(topology.Vertex{Name: top, Role: topology.RoleAggregator, Level: "top", GroupBy: topGroup}))
	for node, p := range rs.plans {
		group := s.Cluster.Nodes[node].Name
		if p.Middle {
			must(g.AddVertex(topology.Vertex{
				Name: s.middleName(rs.round, node), Role: topology.RoleAggregator,
				Level: "middle", GroupBy: group,
			}))
			must(g.AddChannel(topology.Channel{From: s.middleName(rs.round, node), To: top, GroupBy: group}))
		}
		for _, leaf := range rs.leafFor[node] {
			must(g.AddVertex(topology.Vertex{Name: leaf, Role: topology.RoleAggregator, Level: "leaf", GroupBy: group}))
			must(g.AddChannel(topology.Channel{From: leaf, To: s.consumerOf(rs, node), GroupBy: group}))
		}
	}
	return g
}

// RoundTAG exposes the current round's TAG (nil outside a round).
func (s *LIFL) RoundTAG() *topology.TAG {
	if s.rs == nil {
		return nil
	}
	return s.rs.tag
}

// FailAggregator kills the instance behind the logical name mid-round and
// recovers per §3: aggregators are stateless and the updates are immutable
// in shared memory, so a fresh instance starts without state synchronization
// and the agent replays the failed instance's updates into it. Returns the
// number of updates replayed.
func (s *LIFL) FailAggregator(name string) (int, error) {
	rs := s.rs
	if rs == nil || rs.finished {
		return 0, fmt.Errorf("lifl: no round in flight")
	}
	la, ok := rs.bind[name]
	if !ok {
		return 0, fmt.Errorf("lifl: %q not bound", name)
	}
	// Crash the instance: drop its routes and sandbox.
	replay := la.agg.FailoverUpdates()
	node := la.node
	s.Cluster.Nodes[node].SockMap.Remove(name)
	for i, gw := range s.GWs {
		if i != node {
			gw.DropRoute(name)
		}
	}
	s.Mgrs[node].Terminate(la.sb)
	delete(rs.bind, name)
	rs.started[name] = false

	// Stateless restart: re-provision under the same logical name and
	// requeue the in-place updates (they become pending and drain when the
	// replacement binds).
	role, goal, dst := s.roleFor(rs, node, name)
	rs.pending[name] = append(rs.pending[name], replay...)
	s.provision(rs, name, node, role, goal, dst)
	return len(replay), nil
}

// RetireRound implements Service: evict every control-plane record for
// rounds <= last. For each retired round the logical aggregator names are
// re-derived deterministically from the retained plan (sorted node walk),
// their sockmap entries and gateway routes dropped on every node, leftover
// pending shm references released, and the round state — bind map, TAG,
// plans, aggregator closures — unreferenced. The eBPF metrics maps drop
// the rounds' samples and the checkpoint store retires superseded
// snapshots. Pure bookkeeping: no sandbox terminations, no CPU charges, no
// events.
func (s *LIFL) RetireRound(last int) {
	var rounds []int
	for r, rs := range s.hist {
		if r <= last && rs.finished {
			rounds = append(rounds, r)
		}
	}
	if len(rounds) == 0 {
		return
	}
	sort.Ints(rounds)
	for _, r := range rounds {
		s.evictRound(s.hist[r])
		delete(s.hist, r)
	}
	samples := 0
	for _, n := range s.Cluster.Nodes {
		samples += n.SKMSG.RetireRound(last)
	}
	s.Ckpt.Retire(last)
	// Eviction telemetry is Volatile by construction: how much is retired
	// (and when) is a function of the caller's retention window, which the
	// deterministic snapshot must not depend on.
	s.cfg.Obs.Counter("ctrl/rounds_evicted", obs.Volatile).Add(uint64(len(rounds)))
	s.cfg.Obs.Counter("ctrl/ebpf_samples_evicted", obs.Volatile).Add(uint64(samples))
}

// evictRound retires one closed round's registrations and references.
func (s *LIFL) evictRound(rs *liflRound) {
	names := s.roundNames(rs)
	refs := 0
	for _, name := range names {
		for _, n := range s.Cluster.Nodes {
			n.SockMap.Remove(name)
		}
		for _, gw := range s.GWs {
			gw.DropRoute(name)
		}
		for _, u := range rs.pending[name] {
			u.Release()
		}
		refs += len(rs.pending[name])
		delete(rs.pending, name)
	}
	s.cfg.Obs.Counter("ctrl/registrations_retired", obs.Volatile).Add(uint64(len(names)))
	s.cfg.Obs.Counter("ctrl/shm_refs_released", obs.Volatile).Add(uint64(refs))
}

// roundNames lists a round's logical aggregator names in deterministic
// order: each planned node's leaves then its middle (sorted by node
// index), and the top last.
func (s *LIFL) roundNames(rs *liflRound) []string {
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

func (s *LIFL) leafName(round, node, i int) string {
	return fmt.Sprintf("r%d-n%d-leaf%d", round, node, i)
}
func (s *LIFL) middleName(round, node int) string {
	return fmt.Sprintf("r%d-n%d-middle", round, node)
}
func (s *LIFL) topName(round int) string { return fmt.Sprintf("r%d-top", round) }

// consumerOf returns the logical destination for a leaf on node.
func (s *LIFL) consumerOf(rs *liflRound, node int) string {
	if rs.plans[node].Middle {
		return s.middleName(rs.round, node)
	}
	return s.topName(rs.round)
}

// prestart provisions the planned hierarchy at round start (flag ②), so
// start-up overlaps with client training and uploads. Middles and the top
// are only pre-started when reuse (③) is off; with reuse they are bound by
// role conversion of completed instances.
func (s *LIFL) prestart(rs *liflRound) {
	for node, p := range rs.plans {
		for i := 0; i < p.Leaves; i++ {
			s.provision(rs, rs.leafFor[node][i], node, aggcore.RoleLeaf, p.LeafGoals[i], s.consumerOf(rs, node))
		}
		if p.Middle && !s.cfg.Flags.Reuse {
			s.provision(rs, s.middleName(rs.round, node), node, aggcore.RoleMiddle, p.Leaves, s.topName(rs.round))
		}
	}
	if !s.cfg.Flags.Reuse {
		s.provision(rs, s.topName(rs.round), rs.topNode, aggcore.RoleTop, rs.topGoal, "")
		rs.topBound = true
	}
}

// provision starts (cold or warm) a sandbox for the logical name and binds
// an aggregator to it when ready. Idempotent per name.
func (s *LIFL) provision(rs *liflRound, name string, node int, role aggcore.Role, goal int, dst string) {
	if rs.started[name] {
		return
	}
	rs.started[name] = true
	n := s.Cluster.Nodes[node]
	mgr := s.Mgrs[node]
	la := &liflAgg{node: node}
	agg := aggcore.New(name, role, n, s.algo, s.pool)
	agg.Mode = s.mode()
	agg.Tracer = s.cfg.Obs.Spans()
	agg.TraceName = traceNameFor(name, role)
	agg.Assign(role, goal, dst, rs.round)
	agg.Transport = (*liflTransport)(s)
	if role == aggcore.RoleTop {
		agg.OnComplete = s.onGlobal
		rs.topNode = node
	}
	la.agg = agg
	// Deployment kind: with reuse, all LIFL aggregators share one
	// homogenized runtime kind; without it, each level is its own
	// deployment (warm pods cannot cross levels).
	kind := "agg"
	if !s.cfg.Flags.Reuse {
		kind = role.String()
	}
	sb := mgr.Start(kind, func(sb *runtime.Sandbox) {
		// Sandbox ready: bind, register routes, drain anything queued.
		s.bindAgg(rs, name, la)
		agg.NotifyReady()
	})
	la.sb = sb
	agg.Sandbox = sb
	sb.Pinned = true // owes this round an output (cleared on Send)
}

// traceNameFor compresses logical names for timeline rows.
func traceNameFor(name string, role aggcore.Role) string {
	switch role {
	case aggcore.RoleTop:
		return "Top"
	default:
		return name
	}
}

// bindAgg publishes the instance under its logical name: sockmap entry on
// its node, inter-node routes on every gateway, pending queue drain.
func (s *LIFL) bindAgg(rs *liflRound, name string, la *liflAgg) {
	rs.bind[name] = la
	// Registration creation tracks the planned topology, not the retention
	// window — deterministic for a fixed seed.
	s.cfg.Obs.Counter("ctrl/registrations_created", obs.Det).Inc()
	n := s.Cluster.Nodes[la.node]
	n.SockMap.Register(name, func(msg ebpf.Message) {
		s.deliverFromShm(rs, la, msg)
	})
	for i, gw := range s.GWs {
		if i != la.node {
			gw.SetRoute(name, n.Name)
		}
	}
	if la.agg.Role == aggcore.RoleTop {
		rs.topBound = true
		rs.topNode = la.node
	}
	for _, u := range rs.pending[name] {
		la.agg.Receive(u)
	}
	delete(rs.pending, name)
}

// deliverFromShm materializes an shm key into an aggregator Update.
func (s *LIFL) deliverFromShm(rs *liflRound, la *liflAgg, msg ebpf.Message) {
	store := s.Cluster.Nodes[la.node].Shm
	obj, err := store.Get(msg.ShmKey)
	if err != nil {
		panic(fmt.Sprintf("lifl: deliver %s: %v", msg.ShmKey, err))
	}
	la.agg.Receive(aggcore.Update{
		Tensor:   obj.Tensor,
		Weight:   obj.Weight,
		Size:     obj.Size,
		Round:    obj.Round,
		Producer: msg.SrcID,
		Key:      msg.ShmKey,
		Store:    store,
	})
}

// launchClients schedules the round's model distribution and uploads.
func (s *LIFL) launchClients(rs *liflRound) {
	topEgress := s.Cluster.Nodes[rs.topNode].Egress
	size := s.cfg.Model.Bytes()
	for i, j := range rs.jobs {
		i, j := i, j
		node := rs.assignNode[i]
		arrive := func() {
			upd := j.MakeUpdate(s.global)
			s.ingest(rs, node, j, upd)
		}
		if j.SkipBroadcast {
			s.Eng.After(j.Delay, arrive)
			continue
		}
		// Broadcast: the global model leaves the top node once per client;
		// the shared egress NIC staggers the downloads naturally.
		topEgress.Transfer(size, func(_, _ sim.Duration) {
			s.Eng.After(j.Delay, arrive)
		})
	}
}

// ingest pushes one client update into the assigned node's gateway; the
// committed key is dispatched to a leaf (in-place message queuing, §4.2).
func (s *LIFL) ingest(rs *liflRound, node int, j ClientJob, upd *tensor.Tensor) {
	if j.PreQueued {
		// The update is already resident in the node's in-place queue.
		key, err := s.Cluster.Nodes[node].Shm.Put(upd, j.Weight, j.ID, rs.round)
		if err != nil {
			panic(fmt.Sprintf("lifl: prequeued: %v", err))
		}
		if !rs.hasFirst {
			rs.hasFirst = true
			rs.first = s.Eng.Now()
		}
		rs.updates++
		s.dispatch(rs, node, key)
		return
	}
	gw := s.GWs[node]
	gu := gateway.Update{
		Tensor:   upd,
		Weight:   j.Weight,
		Size:     upd.VirtualBytes(),
		NTensors: len(s.cfg.Model.Layers),
		Round:    rs.round,
		Producer: j.ID,
	}
	gw.ReceiveExternal(gu, func(key shm.Key) {
		if !rs.hasFirst {
			rs.hasFirst = true
			rs.first = s.Eng.Now()
		}
		rs.updates++
		s.Metrics.Meter("arrivals", sim.Minute).Mark()
		s.dispatch(rs, node, key)
	})
}

// dispatch assigns a committed update to a leaf (round-robin over the
// node's planned leaves so eager leaves start as early as possible) and
// performs the SKMSG key pass. Under reactive scaling (② off) the leaf's
// sandbox is provisioned on first demand — the cold start lands on the
// critical path, which is exactly the penalty Fig. 8 charges SL-H and +①.
func (s *LIFL) dispatch(rs *liflRound, node int, key shm.Key) {
	leaves := rs.leafFor[node]
	if len(leaves) == 0 {
		panic(fmt.Sprintf("lifl: no leaves planned on node %d", node))
	}
	name := leaves[rs.leafRR[node]%len(leaves)]
	rs.leafRR[node]++
	if !rs.started[name] {
		p := rs.plans[node]
		idx := indexOf(leaves, name)
		s.provision(rs, name, node, aggcore.RoleLeaf, p.LeafGoals[idx], s.consumerOf(rs, node))
	}
	s.keyPass(rs, node, "gw", name, key)
}

func indexOf(ss []string, want string) int {
	for i, s := range ss {
		if s == want {
			return i
		}
	}
	return -1
}

// keyPass sends a 16-byte shm key over the node's SKMSG channel to the
// logical destination, charging the event-driven sidecar cost. Unbound
// destinations queue in pending (the update already sits in shm — this is
// in-place queuing).
func (s *LIFL) keyPass(rs *liflRound, node int, src, dst string, key shm.Key) {
	n := s.Cluster.Nodes[node]
	n.ExecFree("ebpf-sidecar", costmodel.Cycles(n.P.EBPFMetricsCycles))
	msg := ebpf.Message{SrcID: src, DstID: dst, ShmKey: key, Size: 16, Round: rs.round, Kind: "update"}
	verdict, sock, err := n.SKMSG.Run(msg, 0)
	if err != nil || verdict != ebpf.VerdictRedirect {
		// No socket yet (reactive/reuse not bound): park in shm-backed pending.
		store := n.Shm
		obj, gerr := store.Get(key)
		if gerr != nil {
			panic(fmt.Sprintf("lifl: keyPass pending %s: %v", key, gerr))
		}
		rs.pending[dst] = append(rs.pending[dst], aggcore.Update{
			Tensor: obj.Tensor, Weight: obj.Weight, Size: obj.Size,
			Round: obj.Round, Producer: src, Key: key, Store: store,
		})
		s.demand(rs, node, dst)
		return
	}
	s.Eng.After(n.P.ShmKeyPassLatency, func() { sock.Deliver(msg) })
}

// demand reacts to traffic for an unbound logical name: under reactive
// scaling it provisions the instance now; under reuse it converts a warm
// idle instance when one exists (§5.3).
func (s *LIFL) demand(rs *liflRound, node int, name string) {
	if rs.started[name] {
		return
	}
	role, goal, dst := s.roleFor(rs, node, name)
	if s.cfg.Flags.Reuse {
		if s.convert(rs, node, name, role, goal, dst) {
			return
		}
	}
	s.provision(rs, name, node, role, goal, dst)
}

// roleFor resolves a logical name's role, goal and consumer.
func (s *LIFL) roleFor(rs *liflRound, node int, name string) (aggcore.Role, int, string) {
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
	panic(fmt.Sprintf("lifl: unknown logical name %q", name))
}

// convert binds name to a warm idle instance on the same node via role
// conversion (§5.3). Returns false when no candidate is idle.
func (s *LIFL) convert(rs *liflRound, node int, name string, role aggcore.Role, goal int, dst string) bool {
	var cands []*aggcore.Aggregator
	for bn, la := range rs.bind {
		if la.node != node || bn == name {
			continue
		}
		cands = append(cands, la.agg)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].ID < cands[j].ID })
	pick := s.reuse.PickIdle(cands)
	if pick == nil {
		return false
	}
	rs.started[name] = true
	s.reuse.MarkConversion()
	s.TotalConversions++
	s.cfg.Obs.Counter("ctrl/conversions", obs.Det).Inc()
	// Locate the instance wrapper.
	var la *liflAgg
	for _, cand := range rs.bind {
		if cand.agg == pick {
			la = cand
			break
		}
	}
	pick.ConvertRole(role, goal, dst, rs.round, func() {
		if role == aggcore.RoleTop {
			pick.OnComplete = s.onGlobal
			pick.TraceName = "Top"
		}
		s.bindAgg(rs, name, la)
		pick.NotifyReady()
	})
	return true
}

// liflTransport implements aggcore.Transport over shm + SKMSG + gateways.
type liflTransport LIFL

// SendResult writes the aggregate into shared memory (the one real copy of
// the LIFL intra-node path, Fig. 7(a)) and hands the key to the consumer —
// via SKMSG when co-located, via the gateways otherwise.
func (t *liflTransport) SendResult(src *aggcore.Aggregator, out aggcore.Update, dstID string) {
	s := (*LIFL)(t)
	rs := s.rs
	srcNode := s.nodeIndexOf(src.Node)
	n := src.Node
	shmLat, shmCPU := n.P.ShmWrite(out.Size)
	src.ExecAs("aggregator", shmLat, shmCPU, func(start, end sim.Duration) {
		s.cfg.Obs.Spans().Add(obs.Span{Actor: src.TraceName, Kind: obs.KindNetwork, Start: start, End: end, Round: rs.round})
		key, err := n.Shm.Put(out.Tensor, out.Weight, src.ID, out.Round)
		if err != nil {
			panic(fmt.Sprintf("lifl transport: %v", err))
		}
		// Resolve destination placement.
		la, bound := rs.bind[dstID]
		if bound && la.node != srcNode {
			// Cross-node: relay through the gateways (Appendix A).
			dstNodeIdx := la.node
			gw := s.GWs[srcNode]
			if err := gw.SendRemote(src.ID, key, dstID, func(remoteKey shm.Key) {
				s.keyPass(rs, dstNodeIdx, src.ID, dstID, remoteKey)
			}); err != nil {
				panic(fmt.Sprintf("lifl transport: %v", err))
			}
			return
		}
		if !bound && s.topDstRemote(rs, dstID, srcNode) {
			// Destination is the (unbound) top on another node without
			// reuse; should not happen since non-reuse tops pre-bind.
			panic("lifl transport: unbound remote destination " + dstID)
		}
		// Same node (or unbound-yet local name): SKMSG key pass; demand
		// resolution provisions or converts as needed.
		s.keyPass(rs, srcNode, src.ID, dstID, key)
	})
}

// topDstRemote reports whether dst is the top logical name and the top is
// pinned to a different node.
func (s *LIFL) topDstRemote(rs *liflRound, dst string, srcNode int) bool {
	return dst == s.topName(rs.round) && rs.topBound && rs.topNode != srcNode
}

func (s *LIFL) nodeIndexOf(n *cluster.Node) int {
	for i, c := range s.Cluster.Nodes {
		if c == n {
			return i
		}
	}
	panic("lifl: foreign node")
}

// onGlobal fires when the top aggregator emits the round's aggregate:
// install the new global model and run the evaluation task (the "Eval"
// spans of Fig. 4 / Fig. 7(c)).
func (s *LIFL) onGlobal(top *aggcore.Aggregator, out aggcore.Update) {
	rs := s.rs
	next, err := s.cfg.ServerOpt.Apply(s.global, out.Tensor)
	if err != nil {
		panic(fmt.Sprintf("lifl: global update: %v", err))
	}
	s.pool.Put(out.Tensor) // Apply kept no reference; the top was its only consumer
	s.global = next
	rs.aggDone = s.Eng.Now()
	// Appendix B: checkpoint asynchronously in the background so the
	// upload never lands on the aggregation critical path.
	if period := s.cfg.Params.CheckpointPeriodRounds; period > 0 && rs.round%period == 0 {
		s.Ckpt.SaveAsync(rs.round, s.global, nil)
	}
	eval := top.Node.P.EvalTime(s.cfg.Model.Bytes())
	top.ExecAs("aggregator", eval, eval, func(start, end sim.Duration) {
		s.cfg.Obs.Spans().Add(obs.Span{Actor: top.TraceName, Kind: obs.KindEval, Start: start, End: end, Round: rs.round})
		s.finishRound(rs)
	})
}

// finishRound assembles the result and releases round state.
func (s *LIFL) finishRound(rs *liflRound) {
	rs.finished = true
	end := s.Eng.Now()
	// ACT is the aggregation completion time: it ends when the new global
	// model is installed; evaluation runs after and is excluded.
	act := rs.aggDone - rs.start
	if !rs.injected && rs.hasFirst {
		act = rs.aggDone - rs.first
	}
	nodes := make(map[int]bool)
	for _, n := range rs.assignNode {
		nodes[n] = true
	}
	nodes[rs.topNode] = true
	res := RoundResult{
		Round:        rs.round,
		Start:        rs.start,
		FirstArrival: rs.first,
		End:          end,
		ACT:          act,
		Updates:      rs.updates,
		AggsCreated:  int(s.createdTotal() - rs.created0),
		AggsActive:   len(rs.bind),
		NodesUsed:    len(nodes),
		CPUTime:      s.CPUTime() - rs.cpu0,
	}
	s.cfg.Obs.Gauge("load/act_seconds", obs.Det).Set(act.Seconds())
	s.cfg.Obs.Gauge("load/active_aggs", obs.Det).Set(float64(s.ActiveAggregators()))
	s.cfg.Obs.Gauge("load/arrival_rate_per_min", obs.Det).Set(s.Metrics.Meter("arrivals", sim.Minute).Rate())
	if rs.done != nil {
		rs.done(res)
	}
}

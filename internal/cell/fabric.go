package cell

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/aggcore"
	"repro/internal/cluster"
	"repro/internal/coordinator"
	"repro/internal/core"
	"repro/internal/fedavg"
	"repro/internal/flwork"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/systems"
	"repro/internal/tensor"
)

// CellReport summarizes one cell's run — the per-cell Report fields the
// operator reads beside the global Report (docs/GUIDE.md, "Multi-cell
// scenarios").
type CellReport struct {
	Cell int
	// Clients homed on this cell by the locality router, including any
	// re-routed onto it after an outage.
	Clients int
	// ActivePerRound is the cell's final per-round selection share of the
	// fabric-wide active quota.
	ActivePerRound int
	// RoundsRun counts cell-local rounds completed, including a wait-all
	// restore's replayed round.
	RoundsRun int
	// RoundsDiscarded counts this cell's partial rounds discarded by the
	// quorum policy (the in-flight round a dying cell never delivered).
	RoundsDiscarded int
	// Elapsed is the cell-local clock at the end of the run (a restored
	// replacement instance restarts its local clock at zero).
	Elapsed sim.Duration
	// CPUTime is the cell cluster's CPU across all its instances.
	CPUTime sim.Duration
	// FailuresDetected counts client failures the cell's own heartbeat
	// monitor caught (§3) — distinct from the fabric-level cell monitor.
	FailuresDetected int
	// Checkpoints counts durable model versions in the cell's Appendix-B
	// checkpoint store.
	Checkpoints int
	// Dead reports the cell was lost to the outage and never restored
	// (quorum policy; its clients re-routed).
	Dead bool
	// DiedRound is the global round at whose start the outage hit.
	DiedRound int
	// RestoredRound is the global round replayed on the checkpoint-restored
	// replacement (wait-all policy; 0 = never restored).
	RestoredRound int
	// Drained reports the cell was retired by an elastic-plan drain
	// (drain-then-delete: accounting banked, clients re-homed, platform
	// discarded). Distinct from Dead, which is outage loss.
	Drained bool
	// DrainedRound is the global round at whose start the drain applied.
	DrainedRound int
	// JoinedRound is the global round at whose start the cell joined the
	// fabric (0 = an original cell).
	JoinedRound int
}

// Detail is the fabric-level outcome returned beside the global Report.
type Detail struct {
	Cells  []CellReport
	Quorum int // 0 = wait-all
	// ReRoutedClients counts clients re-homed onto surviving cells after
	// the outage (quorum policy).
	ReRoutedClients int
	// OutageDetectedAt is the fabric clock instant the cell monitor
	// declared the dead cell failed (0 = no outage).
	OutageDetectedAt sim.Duration
	// CellRoundsDiscarded totals partial cell rounds the quorum policy
	// discarded instead of blocking for (one per masked outage).
	CellRoundsDiscarded int
	// CrossCellBytes is the total payload shipped over inter-cell links
	// (cell aggregates up, global broadcasts down).
	CrossCellBytes uint64
	// Plan records the elastic reconfiguration outcome — pushes applied,
	// cells joined/drained, or the wholesale rejection (nil = no plan
	// configured).
	Plan *PlanOutcome
}

// fcell is one cell's runtime state inside the fabric.
type fcell struct {
	id   int
	name coordinator.ClientID
	cfg  core.RunConfig // per-cell config (Cells stripped), rebuilt on restore
	plat *core.Platform
	// rng is the cell's round-selection stream. It is control-plane state:
	// it survives a wait-all restore, so the replacement continues the
	// schedule where the dead instance left off.
	rng     *sim.RNG
	clients int
	// pop is the platform's actual resident population — the hard ceiling
	// on goal. clients can exceed it after an outage re-route (re-routed
	// clients are modeled as extra selection quota on the survivor's
	// synthetic residents, who are statistically identical).
	pop    int
	goal   int     // per-round selection share (0 = idle cell)
	weight float64 // routing weight (region share; plan steps update it)

	dying bool // outage fired; silence not yet detected
	dead  bool
	// drained marks a cell retired by an elastic-plan drain; its accounting
	// is banked and its platform discarded, like a dead cell's, but the
	// retirement was orderly (no partial round lost).
	drained      bool
	drainedRound int
	joinedRound  int // 0 = an original cell

	rounds          int
	roundsDiscarded int
	diedRound       int
	restoredRound   int
	// *Accum fields bank the totals of replaced (dead) instances, whose
	// platforms are discarded at detection time.
	cpuAccum  sim.Duration
	failAccum int
	ckptAccum int
	arrAccum  []float64
	elapsed   sim.Duration // last instance's local clock high-water mark
}

// alive reports the cell is still part of the fabric: neither lost to the
// outage nor retired by a plan drain.
func (c *fcell) alive() bool { return !c.dead && !c.drained }

// bank settles a doomed instance's accounting into the accumulators before
// the platform is discarded.
func (c *fcell) bank() {
	c.plat.Sys.Finalize()
	c.cpuAccum += c.plat.Sys.CPUTime()
	c.failAccum += c.plat.FailuresDetected
	if l, ok := c.plat.Sys.(*systems.LIFL); ok {
		c.ckptAccum += l.Ckpt.Count()
	}
	if !c.cfg.StreamOnly {
		c.arrAccum = mergeSeries(c.arrAccum, c.plat.ArrivalSeries())
	}
	c.elapsed = c.plat.Eng.Now()
}

// fabric drives K per-cell platforms round by round and owns the
// cross-cell aggregation tier on its own control-plane engine.
type fabric struct {
	cfg   core.RunConfig
	spec  core.CellSpec
	rtt   sim.Duration
	bw    float64
	bytes uint64 // cross-cell payload: the model's virtual size

	cells []*fcell
	quota int // fabric-wide active share total (credit denominator)
	curve flwork.Curve
	// multi: the cross-cell tier exists — more than one cell, or an elastic
	// plan that may grow/shrink the fabric mid-run.
	multi bool
	// plan is the accepted normalized schedule; planNext cursors it.
	plan     []core.CellPlanStep
	planNext int

	feng  *sim.Engine
	node  *cluster.Node
	top   *aggcore.Aggregator
	pool  *tensor.Pool // the cross-cell tier's own buffers, never a cell's
	beats *coordinator.Heartbeats

	global *tensor.Tensor

	// In-flight round state (multi-cell path).
	roundDone     bool
	endAt         sim.Duration
	foldAt        sim.Duration
	pendingDetect bool
	outagePending bool
	restored      *roundContribution
	evErr         error
	stopped       bool

	detail Detail
}

// roundContribution is one cell's accepted per-round result.
type roundContribution struct {
	c   *fcell
	res systems.RoundResult
	at  sim.Duration // fabric-clock arrival at the cross-cell tier
	// share is the quota share the cell ran this round with, captured at
	// StepRound time: an outage-triggered reroute re-apportions the cells'
	// goal fields mid-round, and the credit accounting must reflect what
	// the round actually fielded, not the next round's plan.
	share int
}

// Run executes a federated multi-cell run: cfg.Cells shapes the fabric,
// everything else keeps its single-cluster meaning. It returns the global
// Report — for Count == 1 byte-identical (fixed seed) to core.Run on the
// same config without Cells — plus the per-cell Detail.
func Run(cfg core.RunConfig) (*core.Report, *Detail, error) {
	if cfg.Cells == nil {
		return nil, nil, errors.New("cell: config has no Cells spec; use core.Run")
	}
	f, err := newFabric(cfg)
	if err != nil {
		return nil, nil, err
	}
	return f.run()
}

func newFabric(cfg core.RunConfig) (*fabric, error) {
	spec := *cfg.Cells
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.Defaulted()
	if cfg.System == core.SystemAsync {
		return nil, fmt.Errorf("cell: the fabric federates synchronous cells; %s has no round barrier to stitch (run it single-cell)", cfg.System)
	}
	if cfg.Inject != nil {
		return nil, errors.New("cell: injected (Fig. 8) rounds have no population to route across cells")
	}
	f := &fabric{
		cfg:   cfg,
		spec:  spec,
		rtt:   spec.RTT,
		bw:    spec.Bandwidth,
		bytes: cfg.Model.Bytes(),
	}
	if f.rtt == 0 {
		f.rtt = cfg.Params.InterCellRTT
	}
	if f.bw == 0 {
		f.bw = cfg.Params.InterCellBandwidth
	}
	if f.bw <= 0 {
		// Hand-built Params predating the inter-cell fields leave the
		// bandwidth at 0; dividing by it would schedule at +Inf and panic
		// the engine, so refuse at construction time.
		return nil, fmt.Errorf("cell: inter-cell bandwidth must be > 0 (set CellSpec.Bandwidth or Params.InterCellBandwidth)")
	}
	f.detail.Quorum = spec.Quorum

	// Level one of the two-level placement: home every client on a cell,
	// region-weighted and seed-stable (placement.CellRouter), then derive
	// each cell's share of the fabric-wide active quota from its resident
	// population (largest-remainder, capped by availability). planStart
	// runs the same arithmetic the plan validator simulates against, so
	// the two can never drift.
	st, err := planStart(cfg, spec)
	if err != nil {
		return nil, err
	}
	f.quota = st.quota

	// The elastic plan: normalize and wholesale-validate the schedule. A
	// plan that fails anywhere is rejected as a whole — recorded in the
	// Detail, and the run proceeds exactly as if no plan were configured.
	if cfg.CellPlan != nil {
		steps, verr := validatePlan(cfg, spec)
		if verr != nil {
			f.detail.Plan = &PlanOutcome{Rejected: verr.Error()}
		} else if len(steps) > 0 {
			f.plan = steps
			f.detail.Plan = &PlanOutcome{}
		}
	}
	f.multi = spec.Count > 1 || len(f.plan) > 0

	ccfgs := make([]core.RunConfig, spec.Count)
	for k := 0; k < spec.Count; k++ {
		ccfgs[k] = f.cellConfig(k, st.cells[k].clients, st.cells[k].goal)
	}
	// Cell assembly runs on the worker pool: each platform synthesizes its
	// population from a private engine and RNG seeded by the cell's salted
	// seed, so build order is unobservable; cells are folded back in cell
	// index order. At fabric scale (millions of clients across K cells)
	// construction is the dominant startup cost.
	type built struct {
		plat *core.Platform
		err  error
	}
	plats := par.Map(cfg.Workers, spec.Count, func(k int) built {
		plat, err := core.NewPlatform(ccfgs[k])
		return built{plat: plat, err: err}
	})
	for k := 0; k < spec.Count; k++ {
		if plats[k].err != nil {
			return nil, fmt.Errorf("cell %d: %w", k, plats[k].err)
		}
		f.cells = append(f.cells, &fcell{
			id:      k,
			name:    cellName(k),
			cfg:     ccfgs[k],
			plat:    plats[k].plat,
			rng:     newCellRNG(ccfgs[k]),
			clients: st.cells[k].clients,
			pop:     ccfgs[k].Clients,
			goal:    st.cells[k].goal,
			weight:  st.cells[k].weight,
		})
	}
	f.curve = f.cells[0].plat.Curve

	if !f.single() {
		// The cross-cell tier: a one-node control cluster hosting the top
		// aggregator that folds the K cell aggregates through the same
		// eager Recv/Agg/Send pipeline every in-cell hierarchy runs.
		f.feng = sim.NewEngine()
		cl := cluster.New(f.feng, sim.NewRNG(cfg.Seed+3), cfg.Params, 1)
		f.node = cl.Nodes[0]
		tmpl := f.cells[0].plat.Sys.Global()
		f.global = tmpl.Clone()
		f.pool = tensor.NewPool(tmpl.Len(), tmpl.VirtualLen)
		f.top = aggcore.New("xcell-top", aggcore.RoleTop, f.node, fedavg.FedAvg{Workers: cfg.Workers}, f.pool)
		f.top.Mode = aggcore.Eager
		f.top.OnComplete = func(_ *aggcore.Aggregator, out aggcore.Update) { f.onFold(out) }
		f.beats = coordinator.NewHeartbeats(f.feng, cfg.Params.HeartbeatTimeout)
		for _, c := range f.cells {
			f.beats.Beat(c.name)
			f.startBeatChain(c)
		}
	}
	return f, nil
}

func (f *fabric) single() bool { return !f.multi }

// cellConfig derives one cell's single-cluster config from the fabric's:
// Cells and the plan stripped, population and share localized, seed salted.
// Used for the original cells and for cells a plan push joins mid-run.
func (f *fabric) cellConfig(id, clients, goal int) core.RunConfig {
	ccfg := f.cfg
	ccfg.Cells = nil
	ccfg.CellPlan = nil
	ccfg.Clients = clients
	if ccfg.Clients == 0 {
		// An empty cell never runs a round; a 1-client population keeps
		// core's zero-means-default rule from synthesizing 2,800.
		ccfg.Clients = 1
	}
	ccfg.ActivePerRound = goal
	if ccfg.ActivePerRound == 0 {
		ccfg.ActivePerRound = 1 // same zero-means-default guard; unused
	}
	// Seed salt keeps cells' draw streams independent; cell 0 keeps the
	// fabric seed exactly so K = 1 is byte-identical to the plain run.
	ccfg.Seed = f.cfg.Seed + int64(id)*1_000_003
	ccfg.Milestones = nil // milestone capture is fabric-level
	ccfg.OnRound = nil
	ccfg.Trajectory = nil // the fabric's global loop owns the sink
	if f.multi {
		// Cells adopt their local mean; the configured server optimizer
		// acts once, at the global tier, where the paper's Eq. (1)
		// aggregate actually materializes.
		ccfg.ServerOpt = fedavg.Adopt{}
		// Each cell reports under its own telemetry prefix. Sub views share
		// the registry's metric store (atomic, name-disjoint) but expose no
		// span log — cells step in parallel, and the root span log is
		// single-writer from the fabric's serial loop only, so the cells'
		// systems record no task spans.
		ccfg.Telemetry = f.cfg.Telemetry.Sub(fmt.Sprintf("cell/%d/", id))
	}
	if f.spec.CheckpointRounds > 0 {
		ccfg.Params.CheckpointPeriodRounds = f.spec.CheckpointRounds
	}
	return ccfg
}

func cellName(id int) coordinator.ClientID {
	return coordinator.ClientID(fmt.Sprintf("cell-%d", id))
}

func newCellRNG(ccfg core.RunConfig) *sim.RNG { return sim.NewRNG(ccfg.Seed + 2) }

// hop is the one-way inter-cell cost of shipping one model-sized payload.
func (f *fabric) hop() sim.Duration {
	return f.rtt/2 + sim.Duration(float64(f.bytes)/f.bw*float64(sim.Second))
}

// cpuTotal is the fabric-wide cumulative CPU: every cell instance plus the
// cross-cell tier's node.
func (f *fabric) cpuTotal() sim.Duration {
	var total sim.Duration
	for _, c := range f.cells {
		total += c.cpuAccum
		if c.plat != nil {
			total += c.plat.Sys.CPUTime()
		}
	}
	if f.node != nil {
		total += f.node.TotalCPUTime()
	}
	return total
}

// startBeatChain keeps a live cell heartbeating the fabric control plane
// every HeartbeatPeriod. The chain stops itself when the cell dies (the
// outage) or the run ends.
func (f *fabric) startBeatChain(c *fcell) {
	period := f.cfg.Params.HeartbeatPeriod
	var tick func()
	tick = func() {
		if f.stopped || c.dying || c.dead || c.drained {
			return
		}
		f.beats.Beat(c.name)
		f.feng.After(period, tick)
	}
	f.feng.After(period, tick)
}

// run is the fabric's global round loop — Platform.Run's shape, lifted one
// level: each iteration plays one global round across the cells and folds
// the survivors' aggregates into the global model.
func (f *fabric) run() (*core.Report, *Detail, error) {
	cfg := f.cfg
	closer, err := core.NewRoundCloser(cfg)
	if err != nil {
		return nil, nil, err
	}
	rep := closer.Report
	// credit is the effective-round account the accuracy curve advances
	// by: each accepted cell aggregate contributes its share of the
	// fabric-wide quota, so full participation advances exactly one round
	// and a discarded straggler (or dead cell) slows convergence — the
	// quantity the cell-outage scenario measures.
	credit := 0.0
	for r := 1; r <= cfg.MaxRounds; r++ {
		res, wall, shares, err := f.playRound(r)
		if err != nil {
			return nil, nil, err
		}
		credit += float64(shares) / float64(f.quota)
		point := core.AccPoint{Round: r, Time: res.End, CPUTime: f.cpuTotal(), Accuracy: f.curve.At(int(credit + 1e-9))}
		reached, err := closer.Close(core.RoundObservation{Result: res, Acc: point, Wall: wall, Shares: shares}, f.activeAggs())
		if err != nil {
			return nil, nil, err
		}
		rep.Elapsed = res.End
		if reached {
			break
		}
	}
	f.stopped = true
	for _, c := range f.cells {
		if c.plat != nil {
			c.plat.Sys.Finalize()
		}
	}
	if f.single() {
		rep.FinalGlobal = f.cells[0].plat.Sys.Global()
	} else {
		rep.FinalGlobal = f.global
	}
	if !cfg.StreamOnly {
		rep.ArrivalsPerMinute = f.mergedArrivals()
	}
	rep.CPUTotal = f.cpuTotal()
	for _, c := range f.cells {
		rep.FailuresDetected += c.failAccum
		if c.plat != nil {
			rep.FailuresDetected += c.plat.FailuresDetected
		}
	}
	return rep, f.assembleDetail(), nil
}

// playRound plays one global round and returns the merged (fabric-clock)
// result, the real wall clock it took, and the quota shares that were
// accepted into the fold.
func (f *fabric) playRound(r int) (systems.RoundResult, time.Duration, int, error) {
	if f.single() {
		c := f.cells[0]
		res, wall, err := c.plat.StepRound(c.rng, r, c.goal)
		if err != nil {
			return systems.RoundResult{}, 0, 0, err
		}
		c.rounds++
		return res, wall, c.goal, nil
	}
	wall0 := time.Now()
	start := f.feng.Now()
	cpu0 := f.cpuTotal()
	// Reconfiguration lands first: a push stamped for round r rewires the
	// fabric at the round's start — before the outage kill, so a plan can
	// retire a cell at the very round an outage would have hit another.
	f.applyPlan(r)
	if f.spec.OutageRound == r {
		f.kill(f.cells[f.spec.OutageCell], r)
	}

	// Phase one: every live cell plays its local round concurrently on the
	// worker pool — the K StepRound calls are independent (private engine,
	// private RNG stream, private population; cells share nothing below
	// the cross-cell tier), so each cell's result is bit-identical to the
	// serial sweep's. Contributions land in per-cell slots and are
	// compacted in cell index order, making the cross-cell tier below the
	// round's only barrier; its aggregate arrives one uplink after each
	// local round ends.
	live := make([]*fcell, 0, len(f.cells))
	for _, c := range f.cells {
		if c.dead || c.dying || c.drained || c.goal <= 0 {
			continue
		}
		live = append(live, c)
	}
	slots := make([]roundContribution, len(live))
	errs := make([]error, len(live))
	par.Do(f.cfg.Workers, len(live), func(i int) {
		c := live[i]
		res, _, err := c.plat.StepRound(c.rng, r, c.goal)
		if err != nil {
			errs[i] = err
			return
		}
		c.rounds++
		c.elapsed = c.plat.Eng.Now()
		slots[i] = roundContribution{c: c, res: res, at: start + (res.End - res.Start) + f.hop(), share: c.goal}
	})
	var arr []roundContribution
	for i, c := range live {
		if errs[i] != nil {
			return systems.RoundResult{}, 0, 0, fmt.Errorf("cell %d round %d: %w", c.id, r, errs[i])
		}
		arr = append(arr, slots[i])
	}
	sort.Slice(arr, func(i, j int) bool {
		if arr[i].at != arr[j].at {
			return arr[i].at < arr[j].at
		}
		return arr[i].c.id < arr[j].c.id
	})

	// The fold goal. Healthy rounds wait for every live cell. In the
	// outage round the straggler-cell policy decides: a quorum (Q > 0)
	// masks the failure — the round closes over the live cells alone
	// (provided at least Q of them), and the silent cell's partial round
	// is discarded — while wait-all (Q == 0) blocks until a replacement is
	// restored from the dead cell's last checkpoint and its replayed round
	// delivers the missing aggregate.
	goal := len(arr)
	if f.outagePending {
		if f.spec.Quorum > 0 {
			if goal < f.spec.Quorum {
				return systems.RoundResult{}, 0, 0, fmt.Errorf("cell: round %d has %d live cells, below quorum %d", r, goal, f.spec.Quorum)
			}
		} else {
			goal++ // the checkpoint-restored replacement's replayed round
		}
	}
	if goal <= 0 {
		return systems.RoundResult{}, 0, 0, fmt.Errorf("cell: round %d has no live contributing cells", r)
	}
	accepted := arr
	f.top.Assign(aggcore.RoleTop, goal, "", r)
	f.restored = nil
	for i := range arr {
		a := arr[i]
		f.feng.At(a.at, func() {
			f.beats.Beat(a.c.name)
			f.detail.CrossCellBytes += f.bytes
			f.top.Receive(aggcore.Update{
				Tensor:   a.c.plat.Sys.Global(),
				Weight:   float64(a.res.Updates),
				Size:     f.bytes,
				Round:    r,
				Producer: string(a.c.name),
			})
		})
	}

	// Phase two: the control-plane engine plays the tier — arrivals, eager
	// folds, the outage detection sweeps, a possible checkpoint restore and
	// replay — until the round's global model is broadcast.
	f.roundDone = false
	f.evErr = nil
	const maxSteps = 50_000_000 // fail loudly instead of hanging CI
	steps := 0
	for (!f.roundDone || f.pendingDetect) && f.evErr == nil && f.feng.Step() {
		if steps++; steps > maxSteps {
			return systems.RoundResult{}, 0, 0, fmt.Errorf("cell: round %d tier did not converge after %d events", r, maxSteps)
		}
	}
	if f.evErr != nil {
		return systems.RoundResult{}, 0, 0, f.evErr
	}
	if !f.roundDone {
		return systems.RoundResult{}, 0, 0, fmt.Errorf("cell: round %d starved before the cross-cell fold", r)
	}

	// Install the folded global into every live cell for the next round.
	for _, c := range f.cells {
		if c.alive() && c.plat != nil {
			c.plat.InstallGlobal(f.global.Clone())
		}
	}
	f.detail.CrossCellBytes += uint64(f.liveCount()) * f.bytes

	merged := systems.RoundResult{Round: r, Start: start, End: f.endAt}
	shares := 0
	contribs := accepted
	if f.restored != nil {
		contribs = append(append([]roundContribution(nil), accepted...), *f.restored)
	}
	for i, a := range contribs {
		if i == 0 || a.at < merged.FirstArrival {
			merged.FirstArrival = a.at
		}
		merged.Updates += a.res.Updates
		shares += a.share
	}
	merged.ACT = f.foldAt - merged.FirstArrival
	for _, a := range arr {
		merged.AggsCreated += a.res.AggsCreated
		merged.AggsActive += a.res.AggsActive
		merged.NodesUsed += a.res.NodesUsed
	}
	if f.restored != nil {
		merged.AggsCreated += f.restored.res.AggsCreated
		merged.AggsActive += f.restored.res.AggsActive
		merged.NodesUsed += f.restored.res.NodesUsed
	}
	merged.AggsActive++ // the cross-cell top
	merged.CPUTime = f.cpuTotal() - cpu0
	f.observeRound(r, start, shares)
	return merged, time.Since(wall0), shares, nil
}

// observeRound publishes the fabric's per-round telemetry: the global
// round envelope span, the fold counters, and the live per-cell quota
// shares the watch dashboard renders. Runs serially between rounds — the
// root span log and the share gauges are single-writer here by contract.
func (f *fabric) observeRound(r int, start sim.Duration, shares int) {
	reg := f.cfg.Telemetry
	if reg == nil {
		return
	}
	reg.Counter("fabric/rounds", obs.Det).Inc()
	reg.Counter("fabric/shares_folded", obs.Det).Add(uint64(shares))
	reg.Gauge("fabric/cross_cell_bytes", obs.Det).Set(float64(f.detail.CrossCellBytes))
	reg.Spans().Add(obs.Span{Actor: "fabric", Kind: obs.KindRound, Start: start, End: f.endAt, Round: r})
	for _, c := range f.cells {
		goal := 0
		if c.alive() {
			goal = c.goal
		}
		reg.Gauge(fmt.Sprintf("fabric/cell/%d/share", c.id), obs.Det).Set(float64(goal))
	}
}

// onFold fires when the cross-cell top emits the round's aggregate: apply
// the server optimizer and install the result with one fused ScaleAdd,
// then charge the global evaluation and the broadcast back to the cells.
func (f *fabric) onFold(out aggcore.Update) {
	f.foldAt = f.feng.Now()
	next, err := f.cfg.ServerOpt.Apply(f.global, out.Tensor)
	if err != nil {
		f.evErr = fmt.Errorf("cell: global install: %w", err)
		return
	}
	f.pool.Put(out.Tensor) // Apply kept no reference; the top was its only consumer
	if next != f.global {
		// The one fused per-round install: t = 0·t + 1·next in a single
		// sweep, keeping the fabric's global backing array stable. The
		// sweep shards across the worker pool when the vector is long
		// enough to pay for it (bit-identical either way).
		if err := f.global.ScaleAddP(0, 1, next, f.cfg.Workers); err != nil {
			f.evErr = fmt.Errorf("cell: global install: %w", err)
			return
		}
	}
	eval := f.cfg.Params.EvalTime(f.bytes)
	f.node.ExecFree("xcell-eval", eval)
	f.feng.At(f.foldAt+eval+f.hop(), func() {
		f.roundDone = true
		f.endAt = f.feng.Now()
	})
}

// kill starts the outage: the cell's beat chain freezes at the round's
// start, and the fabric's monitor wakes exactly when that last beat's
// silence crosses the heartbeat timeout (coordinator.Heartbeats.Deadline)
// to declare the cell dead.
func (f *fabric) kill(c *fcell, r int) {
	c.dying = true
	c.diedRound = r
	f.outagePending = true
	f.pendingDetect = true
	deadline, ok := f.beats.Deadline(c.name)
	if !ok {
		deadline = f.feng.Now() + f.cfg.Params.HeartbeatTimeout
	}
	// Failed() requires the silence to *exceed* the timeout; one tick past
	// the deadline the dying cell — and, with live cells beating every
	// HeartbeatPeriod, only the dying cell — is reported.
	f.feng.At(deadline+1, func() {
		failed := f.beats.Failed()
		if len(failed) != 1 || failed[0] != c.name {
			f.evErr = fmt.Errorf("cell: monitor expected exactly %q silent, got %v", c.name, failed)
			f.pendingDetect = false
			return
		}
		f.onCellDead(c, r)
	})
}

// onCellDead is the detection moment: discard the dead cell's partial
// round and re-route its clients (quorum), or restore a replacement from
// the cell's last durable checkpoint and replay the interrupted round
// (wait-all).
func (f *fabric) onCellDead(c *fcell, r int) {
	now := f.feng.Now()
	f.detail.OutageDetectedAt = now
	f.cfg.Telemetry.Counter("fabric/outages_detected", obs.Det).Inc()
	f.beats.Forget(c.name)
	// The cell's last durable checkpoint must be read before the dead
	// instance is discarded (the store rides the cell's own engine).
	var restoreModel *tensor.Tensor
	if l, ok := c.plat.Sys.(*systems.LIFL); ok {
		if rec, err := l.Ckpt.Latest(); err == nil {
			restoreModel = rec.Model
		}
	}
	if restoreModel == nil {
		// No durable checkpoint yet (or a non-LIFL cell): restore from the
		// fabric's current global, which every cell re-adopts anyway.
		restoreModel = f.global.Clone()
	}
	c.bank()
	c.plat = nil

	if f.spec.Quorum > 0 {
		c.dead = true
		c.dying = false
		// The dead cell's in-flight partial round is discarded (it never
		// reached the tier); its clients re-home onto the survivors.
		c.roundsDiscarded++
		f.detail.CellRoundsDiscarded++
		f.cfg.Telemetry.Counter("fabric/rounds_discarded", obs.Det).Inc()
		f.reroute(c)
		f.pendingDetect = false
		f.outagePending = false
		return
	}

	// Wait-all: fetch the checkpoint across the backbone, cold-start a
	// replacement stack, replay round r on it.
	delay := f.hop() + f.cfg.Params.ColdStartDelay
	f.feng.At(now+delay, func() {
		plat, err := core.NewPlatform(c.cfg)
		if err != nil {
			f.evErr = fmt.Errorf("cell %d restore: %w", c.id, err)
			f.pendingDetect = false
			return
		}
		plat.InstallGlobal(restoreModel)
		c.plat = plat
		c.dying = false
		c.restoredRound = r
		res, _, err := plat.StepRound(c.rng, r, c.goal)
		if err != nil {
			f.evErr = fmt.Errorf("cell %d replay round %d: %w", c.id, r, err)
			f.pendingDetect = false
			return
		}
		c.rounds++
		c.elapsed = plat.Eng.Now()
		at := f.feng.Now() + (res.End - res.Start) + f.hop()
		contrib := roundContribution{c: c, res: res, at: at, share: c.goal}
		f.feng.At(at, func() {
			f.beats.Beat(c.name)
			f.startBeatChain(c)
			f.detail.CrossCellBytes += f.bytes
			f.restored = &contrib
			f.top.Receive(aggcore.Update{
				Tensor:   c.plat.Sys.Global(),
				Weight:   float64(res.Updates),
				Size:     f.bytes,
				Round:    r,
				Producer: string(c.name),
			})
		})
		f.pendingDetect = false
		f.outagePending = false
	})
}

// reroute re-homes the dead cell's clients onto the surviving cells in
// proportion to their resident populations, then re-apportions the
// fabric-wide active quota over the new populations — the next round runs
// at full rate again.
func (f *fabric) reroute(dead *fcell) {
	var weights []float64
	var idx []int
	for _, c := range f.cells {
		if c.alive() {
			weights = append(weights, float64(c.clients))
			idx = append(idx, c.id)
		}
	}
	extra := apportion(dead.clients, weights)
	for i, id := range idx {
		f.cells[id].clients += extra[i]
		weights[i] = float64(f.cells[id].clients)
	}
	f.detail.ReRoutedClients += dead.clients
	f.cfg.Telemetry.Counter("fabric/rerouted_clients", obs.Det).Add(uint64(dead.clients))
	dead.clients = 0
	dead.goal = 0
	goals := apportion(f.quota, weights)
	for i, id := range idx {
		s := f.cells[id]
		s.goal = goals[i]
		// Same cap newFabric applies: a survivor cannot field more jobs per
		// round than its resident population (goals are proportional to the
		// same counts, so this binds only when the whole surviving fabric
		// is overloaded — quota > Σ surviving populations).
		if s.goal > s.pop {
			s.goal = s.pop
		}
	}
}

func (f *fabric) liveCount() int {
	n := 0
	for _, c := range f.cells {
		if c.alive() {
			n++
		}
	}
	return n
}

func (f *fabric) activeAggs() int {
	n := 0
	for _, c := range f.cells {
		if !c.dead && c.plat != nil {
			n += c.plat.Sys.ActiveAggregators()
		}
	}
	if f.single() {
		return n
	}
	return n + 1 // the cross-cell top
}

// mergedArrivals sums the per-cell Fig. 10 arrival series element-wise
// (each cell's series is in its own local minutes; cells run their rounds
// in lockstep, so the merge is minute-aligned to round cadence).
func (f *fabric) mergedArrivals() []float64 {
	if f.single() {
		return f.cells[0].plat.ArrivalSeries()
	}
	var out []float64
	for _, c := range f.cells {
		out = mergeSeries(out, c.arrAccum)
		if c.plat != nil {
			out = mergeSeries(out, c.plat.ArrivalSeries())
		}
	}
	if len(out) == 0 {
		out = []float64{0}
	}
	return out
}

// mergeSeries element-wise adds src into dst, growing dst as needed.
func mergeSeries(dst, src []float64) []float64 {
	if len(src) > len(dst) {
		grown := make([]float64, len(src))
		copy(grown, dst)
		dst = grown
	}
	for i, v := range src {
		dst[i] += v
	}
	return dst
}

func (f *fabric) assembleDetail() *Detail {
	for _, c := range f.cells {
		cr := CellReport{
			Cell:             c.id,
			Clients:          c.clients,
			ActivePerRound:   c.goal,
			RoundsRun:        c.rounds,
			RoundsDiscarded:  c.roundsDiscarded,
			Elapsed:          c.elapsed,
			CPUTime:          c.cpuAccum,
			FailuresDetected: c.failAccum,
			Checkpoints:      c.ckptAccum,
			Dead:             c.dead,
			DiedRound:        c.diedRound,
			RestoredRound:    c.restoredRound,
			Drained:          c.drained,
			DrainedRound:     c.drainedRound,
			JoinedRound:      c.joinedRound,
		}
		if c.plat != nil {
			cr.Elapsed = c.plat.Eng.Now()
			cr.CPUTime += c.plat.Sys.CPUTime()
			cr.FailuresDetected += c.plat.FailuresDetected
			if l, ok := c.plat.Sys.(*systems.LIFL); ok {
				cr.Checkpoints += l.Ckpt.Count()
			}
		}
		f.detail.Cells = append(f.detail.Cells, cr)
	}
	return &f.detail
}

// apportion splits total into len(weights) integer shares proportional to
// the weights — largest-remainder, ties broken by index — so the shares
// always sum exactly to total (zero-weight entries get zero).
func apportion(total int, weights []float64) []int {
	out := make([]int, len(weights))
	if total <= 0 || len(weights) == 0 {
		return out
	}
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	if sum <= 0 {
		return out
	}
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, 0, len(weights))
	given := 0
	for i, w := range weights {
		exact := float64(total) * w / sum
		base := int(exact)
		out[i] = base
		given += base
		rems = append(rems, rem{i, exact - float64(base)})
	}
	sort.Slice(rems, func(i, j int) bool {
		if rems[i].frac != rems[j].frac {
			return rems[i].frac > rems[j].frac
		}
		return rems[i].idx < rems[j].idx
	})
	for i := 0; given < total && i < len(rems); i++ {
		// Never bump a zero-weight entry: trailing zero-frac entries exist
		// only when total splits exactly, in which case given == total.
		if weights[rems[i].idx] <= 0 {
			continue
		}
		out[rems[i].idx]++
		given++
	}
	return out
}

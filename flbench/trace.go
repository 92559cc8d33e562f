package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/flwork"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// span is one timed interval around a call into the program. Spans of one
// round carry that round's number; Parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Round  int    `json:"round,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, at the end.
type tracer struct {
	base  time.Time
	spans []span
}

func (t *tracer) add(parent int, name string, round int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Round: round,
		Start: start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds()})
	return id
}

// setEnd closes a span opened with a provisional end.
func (t *tracer) setEnd(id int, end time.Time) { t.spans[id-1].End = end.Sub(t.base).Nanoseconds() }

// selfTimes sums, per span name, each span's duration minus the part of
// it that its children cover.
func selfTimes(spans []span) map[string]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += (s.End - s.Start) - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, each
// clipped to the parent.
func covered(p span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var sum, end int64
	end = p.Start
	for _, x := range ivs {
		if x.lo > end {
			end = x.lo
		}
		if x.hi > end {
			sum += x.hi - end
			end = x.hi
		}
	}
	return sum
}

// timedSink is the timing decorator around the trajectory sink.
type timedSink struct {
	next   core.TrajectorySink
	tr     *tracer
	parent int
	total  time.Duration
	calls  int
}

func (s *timedSink) Observe(ob core.RoundObservation) error {
	start := time.Now()
	err := s.next.Observe(ob)
	end := time.Now()
	s.tr.add(s.parent, "trajstore.Observe", ob.Acc.Round, start, end)
	s.total += end.Sub(start)
	s.calls++
	return err
}

// layerRun is what one traced run measured, layer by layer.
type layerRun struct {
	populationS, platformS float64
	stageUS                map[string]float64 // per-round mean, by stage
	roundWallsUS           []float64
	rps                    float64
	det                    detCounts
	actP50S, activeAggs    float64
	observeUS, trajBytes   float64
	meanStaleness          float64
}

// detCounts are the Det per-layer counts: pure functions of (workload,
// seed), so every traced run must reproduce them exactly.
type detCounts struct {
	Registrations, Conversions, SkmsgRuns, Redirects float64
	Shares, CrossCellBytes                           float64
	Updates, Discarded                               float64
}

var stages = []string{"select", "materialize", "playout", "close"}

// tracedRun times the population build, then runs w once with telemetry
// (CaptureWall), per-round spans and the sink decorator attached.
func tracedRun(v *verifier, dir string, tr *tracer, cellClients []int) (*layerRun, error) {
	cfg := v.w.config(v.seed)
	lr := &layerRun{stageUS: make(map[string]float64)}

	popStart := time.Now()
	timePopulation(cfg, v.w.fabric, cellClients)
	popEnd := time.Now()
	tr.add(0, "flwork.NewPopulation", 0, popStart, popEnd)
	lr.populationS = popEnd.Sub(popStart).Seconds()

	reg := obs.New(obs.Options{CaptureWall: true, MaxSpans: 1 << 17})
	runID := tr.add(0, "run", 0, time.Now(), time.Now())
	var acts, aggs []float64
	h := hooks{
		telemetry: reg,
		onRound: func(ob core.RoundObservation, at time.Time) {
			tr.add(runID, "round", ob.Acc.Round, at.Add(-ob.Wall), at)
			lr.roundWallsUS = append(lr.roundWallsUS, float64(ob.Wall.Nanoseconds())/1e3)
			acts = append(acts, ob.Result.ACT.Seconds())
			aggs = append(aggs, float64(ob.Result.AggsActive))
		},
	}
	var sink *timedSink
	if v.w.trajectory {
		h.wrapSink = func(next core.TrajectorySink) core.TrajectorySink {
			sink = &timedSink{next: next, tr: tr, parent: runID}
			return sink
		}
	}
	o := v.run(dir, h)
	if o == nil {
		return nil, fmt.Errorf("%s: traced run failed", v.w.name)
	}
	tr.spans[runID-1].Start = o.start.Sub(tr.base).Nanoseconds()
	tr.setEnd(runID, o.end)
	setupID := tr.add(runID, "setup", 0, o.start, o.round1)
	if !o.built.IsZero() {
		tr.add(setupID, "core.NewPlatform", 0, o.start, o.built)
		lr.platformS = o.built.Sub(o.start).Seconds() - lr.populationS
		addStageSpans(tr, runID, o.built, reg.WallSpans().Spans())
	} else {
		lr.platformS = o.setup().Seconds() - lr.populationS
	}
	tr.add(runID, "finalize", 0, o.last, o.end)

	rounds := float64(o.rep.RoundsRun)
	counters := sumBySuffix(reg.CounterValues(""))
	gauges := sumBySuffix(reg.GaugeValues(""))
	for _, st := range stages {
		lr.stageUS[st] = counters["stage/"+st+"/wall_ns"] / rounds / 1e3
	}
	lr.rps = o.roundsPerSecond()
	lr.det = detCounts{
		Registrations:  counters["ctrl/registrations_created"],
		Conversions:    counters["ctrl/conversions"],
		SkmsgRuns:      gauges["ebpf/skmsg_runs"],
		Redirects:      gauges["ebpf/redirects"],
		Shares:         counters["fabric/shares_folded"],
		CrossCellBytes: gauges["fabric/cross_cell_bytes"],
		Updates:        counters["core/updates"],
		Discarded:      counters["core/discarded"],
	}
	lr.actP50S = median(acts)
	lr.activeAggs = median(aggs)
	lr.meanStaleness = o.rep.MeanStaleness
	if sink != nil && sink.calls > 0 {
		lr.observeUS = float64(sink.total.Nanoseconds()) / 1e3 / float64(sink.calls)
		lr.trajBytes = float64(o.trajBytes) / rounds
	}
	return lr, nil
}

// timePopulation builds the population core.NewPlatform would build for
// cfg — for the fabric, one per cell on the fabric's worker pool and with
// its per-cell seed salt — and drops it.
func timePopulation(cfg core.RunConfig, fabric bool, cellClients []int) {
	build := func(clients int, seed int64) *flwork.Population {
		return flwork.NewPopulation(sim.NewEngine(), flwork.Config{
			NumClients: clients, Model: cfg.Model, Class: cfg.Class, Seed: seed + 1, Workers: cfg.Workers,
		})
	}
	if !fabric {
		build(cfg.Clients, cfg.Seed)
		return
	}
	par.Map(cfg.Workers, len(cellClients), func(k int) *flwork.Population {
		return build(cellClients[k], cfg.Seed+int64(k)*1_000_003)
	})
}

// addStageSpans turns the registry's wall-clock stage spans (offsets from
// platform construction) into children of the round spans.
func addStageSpans(tr *tracer, runID int, built time.Time, wall []obs.Span) {
	roundSpan := make(map[int]int)
	for _, s := range tr.spans {
		if s.Parent == runID && s.Name == "round" {
			roundSpan[s.Round] = s.ID
		}
	}
	for _, s := range wall {
		parent := roundSpan[s.Round]
		if parent == 0 {
			continue
		}
		tr.add(parent, "core."+s.Kind, s.Round, built.Add(s.Start), built.Add(s.End))
	}
}

// sumBySuffix folds per-cell registry names ("cell/2/ctrl/conversions")
// onto their layer name ("ctrl/conversions"), summing across cells.
func sumBySuffix(vals []obs.Value) map[string]float64 {
	out := make(map[string]float64)
	for _, v := range vals {
		name := v.Name
		if strings.HasPrefix(name, "cell/") {
			if parts := strings.SplitN(name, "/", 3); len(parts) == 3 {
				name = parts[2]
			}
		}
		out[name] += v.Value
	}
	return out
}

// probe times fn over batches of roughly probeElems model elements and
// returns the median nanoseconds per thousand elements.
func probe(tr *tracer, name string, n int, fn func()) float64 {
	calls := max(1, probeElems/n)
	var perKelem []float64
	for b := 0; b < probeBatches; b++ {
		start := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		end := time.Now()
		tr.add(0, name, 0, start, end)
		perKelem = append(perKelem, float64(end.Sub(start).Nanoseconds())/float64(calls)/(float64(n)/1e3))
	}
	return median(perKelem)
}

const (
	probeElems   = 2_000_000
	probeBatches = 9
	// minTraced and maxTraced bound the traced runs in one window.
	minTraced = 2
	maxTraced = 5
)

// kernelProbes time Population.LocalUpdateInto and Accumulator.Add on the
// workload's own model size.
func kernelProbes(tr *tracer, m model.Spec, class flwork.ClientClass, seed int64) (updateNs, foldNs float64, err error) {
	pop := flwork.NewPopulation(sim.NewEngine(), flwork.Config{NumClients: 64, Model: m, Class: class, Seed: seed})
	global, dst := m.NewTensor(), m.NewTensor()
	n := dst.Len()
	i := 0
	updateNs = probe(tr, "probe.flwork.LocalUpdateInto", n, func() {
		pop.LocalUpdateInto(dst, pop.Client(i%pop.Len()), global, 1+i%100)
		i++
	})
	acc := tensor.NewAccumulator(n)
	foldNs = probe(tr, "probe.tensor.Accumulator.Add", n, func() {
		if err == nil {
			err = acc.Add(dst, 1)
		}
	})
	return updateNs, foldNs, err
}

// measureLayers alternates untraced and traced runs for the window and
// reports the per-layer metrics. Past maxTraced traced runs, only the
// untraced baseline of obs.overhead_frac keeps running, which bounds the
// span log. The Det counts must repeat exactly across traced runs. Spans
// and per-layer self times are written to dir.
func measureLayers(v *verifier, dir string, window time.Duration, stderr io.Writer) (map[string]metric, error) {
	tr := &tracer{base: time.Now()}
	var plainRPS []float64
	var runs []*layerRun
	var cellClients []int
	begin := time.Now()
	for len(runs) < minTraced || time.Since(begin) < window {
		o := v.run(dir, hooks{})
		if o == nil {
			return nil, fmt.Errorf("%s: untraced run failed", v.w.name)
		}
		plainRPS = append(plainRPS, o.roundsPerSecond())
		if o.detail != nil && cellClients == nil {
			for _, c := range o.detail.Cells {
				cellClients = append(cellClients, c.Clients)
			}
		}
		if len(runs) == maxTraced {
			continue
		}
		lr, err := tracedRun(v, dir, tr, cellClients)
		if err != nil {
			return nil, err
		}
		if len(runs) > 0 && lr.det != runs[0].det {
			return nil, fmt.Errorf("%s: Det counts differ between traced runs: %+v vs %+v", v.w.name, lr.det, runs[0].det)
		}
		runs = append(runs, lr)
	}
	cfg := v.w.config(v.seed)
	updateNs, foldNs, err := kernelProbes(tr, cfg.Model, cfg.Class, v.seed)
	if err != nil {
		return nil, err
	}

	pick := func(f func(*layerRun) float64) float64 {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	var walls []float64
	for _, r := range runs {
		walls = append(walls, r.roundWallsUS...)
	}
	sort.Float64s(walls)
	tailPct, tailUS, ok := tailPercentile(walls)
	if !ok {
		return nil, fmt.Errorf("%s: %d round samples are too few for a tail", v.w.name, len(walls))
	}
	d := runs[0].det
	rounds := float64(v.w.rounds)
	discardedFrac := 0.0
	if d.Updates+d.Discarded > 0 {
		discardedFrac = d.Discarded / (d.Updates + d.Discarded)
	}
	m := map[string]metric{
		"flwork.population_s":             {pick(func(r *layerRun) float64 { return r.populationS }), "s"},
		"flwork.update_ns_per_kelem":      {updateNs, "ns"},
		"core.platform_s":                 {pick(func(r *layerRun) float64 { return r.platformS }), "s"},
		"core.round_p50_us":               {median(walls), "us"},
		"core.round_tail_us":              {tailUS, "us"},
		"core.round_tail_pct":             {float64(tailPct), "pct"},
		"core.round_samples":              {float64(len(walls)), "count"},
		"systems.registrations_per_round": {d.Registrations / rounds, "count"},
		"systems.conversions_per_round":   {d.Conversions / rounds, "count"},
		"ebpf.skmsg_runs_per_round":       {d.SkmsgRuns / rounds, "count"},
		"ebpf.redirects_per_round":        {d.Redirects / rounds, "count"},
		"systems.act_p50_s":               {runs[0].actP50S, "sim_s"},
		"systems.active_aggs_mean":        {runs[0].activeAggs, "count"},
		"tensor.fold_ns_per_kelem":        {foldNs, "ns"},
		"trajstore.observe_us":            {pick(func(r *layerRun) float64 { return r.observeUS }), "us"},
		"trajstore.bytes_per_round":       {runs[0].trajBytes, "B"},
		"cell.shares_folded_per_round":    {d.Shares / rounds, "count"},
		"cell.cross_cell_bytes":           {d.CrossCellBytes, "B"},
		"asyncfl.discarded_frac":          {discardedFrac, "frac"},
		"asyncfl.mean_staleness":          {runs[0].meanStaleness, "versions"},
		"obs.overhead_frac":               {1 - pick(func(r *layerRun) float64 { return r.rps })/median(plainRPS), "frac"},
	}
	for _, st := range stages {
		st := st
		m["core."+st+"_us"] = metric{pick(func(r *layerRun) float64 { return r.stageUS[st] }), "us"}
	}

	self := selfTimes(tr.spans)
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", v.w.name, v.seed))
	if err := writeTrace(path, v, tr.spans, self, len(runs)); err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "flbench: %s seed %d: %d traced runs, %d spans -> %s\n", v.w.name, v.seed, len(runs), len(tr.spans), path)
	fmt.Fprintf(stderr, "flbench: round tail p%d over %d samples\n", tailPct, len(walls))
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Fprintf(stderr, "flbench:   self %-32s %12.3f ms in all\n", n, float64(self[n])/1e6)
	}
	return m, nil
}

func writeTrace(path string, v *verifier, spans []span, self map[string]int64, runs int) error {
	data, err := json.Marshal(struct {
		Workload string           `json:"workload"`
		Seed     int64            `json:"seed"`
		Runs     int              `json:"traced_runs"`
		SelfNS   map[string]int64 `json:"self_ns"`
		Spans    []span           `json:"spans"`
	}{v.w.name, v.seed, runs, self, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

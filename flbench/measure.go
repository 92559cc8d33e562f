package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trajstore"
)

// hooks attach the traced run's instruments to one execution; the zero
// value is the untraced run.
type hooks struct {
	telemetry *obs.Registry
	// onRound sees every round observation with the host time it arrived.
	onRound func(ob core.RoundObservation, at time.Time)
	// wrapSink decorates the trajectory sink (the timing decorator).
	wrapSink func(core.TrajectorySink) core.TrajectorySink
}

// observed is what one run leaves behind, every timing taken from outside
// the program around its public calls.
type observed struct {
	rep    *core.Report
	detail *cell.Detail  // fabric runs only
	start  time.Time     // the run call
	built  time.Time     // core.NewPlatform returned (single-platform runs)
	round1 time.Time     // round 1 started: first OnRound minus its Wall
	first  time.Time     // first OnRound
	last   time.Time     // last OnRound
	end    time.Time     // the run call returned, after Finalize
	wall1  time.Duration // round 1's Wall
	// The process's CPU time at the same instants.
	cpuStart, cpuBuilt, cpuFirst, cpuLast, cpuEnd time.Duration
	// mallocs1 and mallocsN are cumulative heap allocations at the end of
	// round 1 and when the run call returned.
	mallocs1, mallocsN uint64
	trajPath           string
	trajBytes          int64
}

// setupFromFirstRound is the set-up time implied by the first round
// observation: the host time it arrived, less the wall time that round
// took, measured from the run call. It is the one rule for every
// workload, fabric and async included.
func setupFromFirstRound(start, firstAt time.Time, firstWall time.Duration) time.Duration {
	return firstAt.Sub(start) - firstWall
}

// cpuSetupFromFirstRound is the same rule in CPU time: the CPU time up to
// the first observation, less round 1's, which is estimated as that
// round's wall time times the CPU the rest of the round loop spent per
// wall second.
func cpuSetupFromFirstRound(toFirst, firstWall, loopCPU, loopWall time.Duration) time.Duration {
	perWall := 1.0
	if loopWall > 0 {
		perWall = float64(loopCPU) / float64(loopWall)
	}
	return toFirst - time.Duration(float64(firstWall)*perWall)
}

func (o *observed) setup() time.Duration { return o.round1.Sub(o.start) }
func (o *observed) total() time.Duration { return o.end.Sub(o.start) }

// setupCPU is the CPU time from the run call to the start of round 1. A
// single platform's round 1 starts when NewPlatform returns; the fabric
// builds inside cell.Run, so its set-up follows the first-round rule.
func (o *observed) setupCPU() time.Duration {
	if !o.built.IsZero() {
		return o.cpuBuilt - o.cpuStart
	}
	return cpuSetupFromFirstRound(o.cpuFirst-o.cpuStart, o.wall1, o.cpuLast-o.cpuFirst, o.last.Sub(o.first))
}

// totalCPU is the CPU time of the whole run call.
func (o *observed) totalCPU() time.Duration { return o.cpuEnd - o.cpuStart }

// loopCPU is the CPU time of the rounds after the first: from the first
// observation to the last.
func (o *observed) loopCPU() time.Duration { return o.cpuLast - o.cpuFirst }

// roundsPerSecond counts completed rounds per host second of the round
// loop, from the start of round 1 to the last observation.
func (o *observed) roundsPerSecond() float64 {
	loop := o.last.Sub(o.round1).Seconds()
	if loop <= 0 {
		return 0
	}
	return float64(o.rep.RoundsRun) / loop
}

// allocsPerRound averages heap allocations from the end of round 1 to the
// run call's return over the rounds after the first.
func (o *observed) allocsPerRound() float64 {
	if o.rep.RoundsRun < 2 {
		return 0
	}
	return float64(o.mallocsN-o.mallocs1) / float64(o.rep.RoundsRun-1)
}

// execute runs w once for seed. Trajectory files land in dir.
func execute(w workload, seed int64, dir string, h hooks) (*observed, error) {
	cfg := w.config(seed)
	cfg.Telemetry = h.telemetry
	o := &observed{}
	var sink *trajstore.Sink
	if w.trajectory {
		o.trajPath = filepath.Join(dir, fmt.Sprintf("%s-%d.traj", w.name, seed))
		var err error
		if sink, err = trajstore.NewSink(o.trajPath, cfg, trajstore.Options{}); err != nil {
			return nil, err
		}
		defer sink.Close() // error path only; the success path checks Close
		cfg.Trajectory = sink
		if h.wrapSink != nil {
			cfg.Trajectory = h.wrapSink(sink)
		}
	}
	var ms runtime.MemStats
	cfg.OnRound = func(ob core.RoundObservation) {
		now, cpu := time.Now(), cpuNow()
		if o.round1.IsZero() {
			o.first, o.cpuFirst, o.wall1 = now, cpu, ob.Wall
			o.round1 = o.start.Add(setupFromFirstRound(o.start, now, ob.Wall))
			runtime.ReadMemStats(&ms)
			o.mallocs1 = ms.Mallocs
		}
		o.last = now
		o.cpuLast = cpu
		if h.onRound != nil {
			h.onRound(ob, now)
		}
	}

	runtime.GC() // every run starts from the same collected heap
	var err error
	o.start, o.cpuStart = time.Now(), cpuNow()
	if w.fabric {
		o.rep, o.detail, err = cell.Run(cfg)
	} else {
		var p *core.Platform
		if p, err = core.NewPlatform(cfg); err == nil {
			o.built, o.cpuBuilt = time.Now(), cpuNow()
			o.rep, err = p.Run()
		}
	}
	o.end, o.cpuEnd = time.Now(), cpuNow()
	runtime.ReadMemStats(&ms)
	o.mallocsN = ms.Mallocs
	if err != nil {
		return nil, err
	}
	if o.round1.IsZero() {
		return nil, fmt.Errorf("%s: no round was observed", w.name)
	}
	if sink != nil {
		if err := sink.Close(); err != nil {
			return nil, fmt.Errorf("close trajectory: %w", err)
		}
		fi, err := os.Stat(o.trajPath)
		if err != nil {
			return nil, err
		}
		o.trajBytes = fi.Size()
	}
	return o, nil
}

// peakLiveHeap runs once more with a forced collection at every
// (rounds/heapSamples)-th round boundary and after the run, and returns the
// largest live heap found. A forced collection leaves only reachable
// objects, so the figure does not depend on when the collector happened
// to run. The timed runs get no forced collection.
func peakLiveHeap(v *verifier, dir string) (uint64, bool) {
	every := max(1, v.w.rounds/heapSamples)
	var peak uint64
	sample := func() {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		peak = max(peak, ms.HeapAlloc)
	}
	o := v.run(dir, hooks{onRound: func(ob core.RoundObservation, _ time.Time) {
		if ob.Acc.Round%every == 0 {
			sample()
		}
	}})
	if o == nil {
		return 0, false
	}
	sample() // the report is still reachable through o
	return peak, true
}

// heapSamples is how many round boundaries peakLiveHeap samples.
const heapSamples = 64

// verifier checks every run of one (workload, seed) against the committed
// reference, the workload's invariants, the first run's fingerprint and,
// for trajectory workloads, the replayed file. It tallies rounds
// attempted and failed.
type verifier struct {
	w         workload
	seed      int64
	ref       reference
	first     *fingerprint
	hasRef    bool
	attempted int
	failed    int
	errs      []error
}

// run executes once and verifies the result; it returns nil for a run
// that failed or mismatched (already tallied).
func (v *verifier) run(dir string, h hooks) *observed {
	v.attempted += v.w.rounds
	o, err := execute(v.w, v.seed, dir, h)
	if err == nil {
		err = v.verify(o)
	}
	if err != nil {
		v.failed += v.w.rounds
		v.errs = append(v.errs, err)
		return nil
	}
	return o
}

func (v *verifier) verify(o *observed) error {
	fp, err := fingerprintOf(o.rep)
	if err != nil {
		return err
	}
	if v.hasRef, err = v.ref.check(v.w, v.seed, fp); err != nil {
		return err
	}
	if v.first == nil {
		v.first = &fp
	} else if fp != *v.first {
		return fmt.Errorf("%s seed %d: run fingerprint %+v differs from the first run's %+v", v.w.name, v.seed, fp, *v.first)
	}
	if o.trajPath != "" {
		if err := checkReplay(o.trajPath, o.rep); err != nil {
			return err
		}
		return os.Remove(o.trajPath)
	}
	return nil
}

func (v *verifier) report(stderr io.Writer) {
	for _, err := range v.errs {
		fmt.Fprintln(stderr, "flbench: FAILED:", err)
	}
	if !v.hasRef {
		fmt.Fprintf(stderr, "flbench: no committed reference for %s seed %d; checked invariants and run-to-run identity only\n", v.w.name, v.seed)
	}
}

// measureEndToEnd runs w untraced, repeatedly, for the measurement window
// after one warm-up run, and reports the medians of the host metrics and
// the (exactly repeating) simulated outcomes. A calibration follows every
// run, and each run's CPU times are scaled by the calibrations on either
// side of it.
func measureEndToEnd(v *verifier, dir string, window time.Duration, stderr io.Writer) (map[string]metric, error) {
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	v.run(dir, hooks{}) // warm-up: fills caches, fixes the first fingerprint
	cal.measure()
	before := cal.measure()
	var setup, total, rps, allocs, wall []float64
	begin := time.Now()
	for runs := 0; runs < minRuns || time.Since(begin) < window; runs++ {
		o := v.run(dir, hooks{})
		var setupCPU time.Duration
		if o != nil {
			if setupCPU, err = batchSetup(v.w, v.seed, o); err != nil {
				return nil, err
			}
		}
		after := cal.measure()
		if o != nil {
			setup = append(setup, calibrated(setupCPU, before, after))
			total = append(total, calibrated(o.totalCPU(), before, after))
			rps = append(rps, float64(o.rep.RoundsRun-1)/calibrated(o.loopCPU(), before, after))
			allocs = append(allocs, o.allocsPerRound())
			wall = append(wall, o.total().Seconds())
		}
		before = after
	}
	heap, ok := peakLiveHeap(v, dir)
	if !ok || len(setup) == 0 {
		return nil, fmt.Errorf("%s: no run succeeded", v.w.name)
	}
	fmt.Fprintf(stderr, "flbench: %s seed %d: %d measured runs\n", v.w.name, v.seed, len(setup))
	for _, q := range []struct {
		name string
		xs   []float64
	}{{"setup_s", setup}, {"run_s", total}, {"rounds_per_s", rps}, {"run wall s", wall}, {"calib pass s", cal.passes}} {
		fmt.Fprintf(stderr, "flbench:   %-13s quartiles %.6g\n", q.name, quartiles(q.xs))
	}
	return map[string]metric{
		"setup_s":          {median(setup), "s"},
		"run_s":            {median(total), "s"},
		"rounds_per_s":     {median(rps), "1/s"},
		"peak_heap_mb":     {float64(heap) / (1 << 20), "MB"},
		"allocs_per_round": {median(allocs), "count"},
		"sim_time_s":       {v.first.simTime(), "sim_s"},
		"sim_cpu_h":        {v.first.simCPUHours(), "cpu_h"},
	}, nil
}

// setupBatch is how many set-ups one setup_s sample averages on a single
// platform: the run's own and setupBatch-1 more core.NewPlatform calls
// on the same config. Such a set-up takes well under a millisecond, and
// from one call to the next it takes one of two times, as the caches
// happen to be; the median of single set-ups jumps between the two.
const setupBatch = 8

// batchSetup is the run's setup_s sample in CPU time: the fabric's own
// set-up, which is long enough alone, or the mean set-up of a batch.
func batchSetup(w workload, seed int64, o *observed) (time.Duration, error) {
	if w.fabric {
		return o.setupCPU(), nil
	}
	sum := o.setupCPU()
	cfg := w.config(seed)
	for range setupBatch - 1 {
		runtime.GC()
		t := cpuNow()
		if _, err := core.NewPlatform(cfg); err != nil {
			return 0, fmt.Errorf("%s: extra set-up: %w", w.name, err)
		}
		sum += cpuNow() - t
	}
	return sum / setupBatch, nil
}

// minRuns is the fewest measured runs a window reports a median over.
const minRuns = 3

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return [3]float64{median(s[:n/2+n%2]), median(s), median(s[n/2:])}
}

// tailPercentile applies the tail rule to ascending samples: the highest
// whole percentile p <= 99 whose nearest-rank sample has at least 10
// samples beyond it. ok is false when fewer than 11 samples exist.
func tailPercentile(sorted []float64) (p int, v float64, ok bool) {
	n := len(sorted)
	for p = 99; p >= 1; p-- {
		rank := (p*n + 99) / 100 // ceil(p·n/100)
		if rank >= 1 && n-rank >= 10 {
			return p, sorted[rank-1], true
		}
	}
	return 0, 0, false
}

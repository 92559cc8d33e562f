// Command liflbench is the perf-trajectory runner: it sweeps the scenario
// registry through the instrumented harness (best-of-N real-clock
// measurement, allocation deltas, peak heap, deterministic sim outcomes,
// time-to-accuracy milestones, the §6.1 placement microbenchmark) and
// emits a versioned BENCH_*.json suite at the repo root. Given a baseline
// it compares with tolerance-based verdicts and exits non-zero on
// regression — which is what CI gates on.
//
// Usage:
//
//	liflbench                                  # measure everything -> BENCH_PR15.json
//	liflbench -short                           # only short-class scenarios (the PR-CI gate)
//	liflbench -scenario fig9-r18,million-clients
//	liflbench -baseline BENCH_baseline.json -tolerance 0.15
//	liflbench -pprof profiles/                 # also write per-scenario CPU+heap profiles
//	liflbench -list                            # show registry entries + bench classes
//
// Exit status: 0 on success, 1 when the baseline comparison finds
// regressions, 2 on usage errors.
//
// Deterministic metrics (mallocs, alloc bytes, simulated time) gate at
// -tolerance even across machines; real-clock metrics (wall, peak heap,
// placement µs) gate at -wall-tolerance (default 4×) because a committed
// baseline usually comes from different hardware.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/perfrec"
	"repro/internal/scenario"
)

// placementScenario names the synthetic registry entry for the §6.1
// placement-decision microbenchmark (10K clients, 100 nodes).
const placementScenario = "placement-10k"

func main() {
	out := flag.String("out", "BENCH_PR15.json", "output suite path")
	baseline := flag.String("baseline", "", "baseline suite to compare against (empty = measure only)")
	tolerance := flag.Float64("tolerance", perfrec.DefaultTolerance, "allowed fractional growth for deterministic metrics (0 = exact equality)")
	wallTol := flag.Float64("wall-tolerance", 0, "allowed fractional growth for wall-clock metrics (0 = 4x tolerance)")
	repeat := flag.Int("repeat", 0, "best-of-N repeat override (0 = per-scenario bench metadata)")
	short := flag.Bool("short", false, "only short-class scenarios (the PR-CI bench gate)")
	names := flag.String("scenario", "", "comma-separated scenario subset (default: every registry entry)")
	handicap := flag.Float64("handicap", 1, "multiply measured wall-clock metrics — self-test hook for the regression gate")
	note := flag.String("note", "", "free-form provenance recorded in the suite")
	list := flag.Bool("list", false, "list registry entries with bench metadata and exit")
	pprofDir := flag.String("pprof", "", "directory for per-scenario CPU and heap profiles (empty = no profiling)")
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "liflbench: unexpected arguments %q\n", flag.Args())
		flag.Usage()
		os.Exit(2)
	}
	if *repeat < 0 || *tolerance < 0 || *wallTol < 0 || *handicap <= 0 {
		fmt.Fprintln(os.Stderr, "liflbench: -repeat/-tolerance/-wall-tolerance must be >= 0 and -handicap > 0")
		flag.Usage()
		os.Exit(2)
	}

	if *list {
		for _, n := range scenario.Names() {
			sc := scenario.MustGet(n)
			fmt.Printf("%-20s %-6s repeats=%d runs=%d  %s\n", n, sc.Bench.ClassOrDefault(), sc.Bench.Repeats, len(sc.Expand()), sc.Description)
		}
		return
	}

	selected, err := selectScenarios(*names, *short)
	if err != nil {
		fmt.Fprintf(os.Stderr, "liflbench: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	suite := &perfrec.Suite{
		Tool:      "liflbench",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Note:      *note,
	}
	prof, err := newProfiler(*pprofDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "liflbench: %v\n", err)
		os.Exit(1)
	}
	suite.Runs = append(suite.Runs, measurePlacement())
	for _, name := range selected {
		sc := scenario.MustGet(name)
		fmt.Fprintf(os.Stderr, "liflbench: measuring %s (%d runs)\n", name, len(sc.Expand()))
		stop, err := prof.start(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "liflbench: %v\n", err)
			os.Exit(1)
		}
		recs, err := harness.MeasureScenario(sc, harness.MeasureOptions{Repeats: *repeat})
		if perr := stop(); perr != nil {
			fmt.Fprintf(os.Stderr, "liflbench: %v\n", perr)
			os.Exit(1)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "liflbench: %v\n", err)
			os.Exit(1)
		}
		suite.Runs = append(suite.Runs, recs...)
	}
	if *handicap != 1 {
		for i := range suite.Runs {
			suite.Runs[i].WallNS = int64(float64(suite.Runs[i].WallNS) * *handicap)
			suite.Runs[i].RoundWallMaxNS = int64(float64(suite.Runs[i].RoundWallMaxNS) * *handicap)
			suite.Runs[i].PlacementUS *= *handicap
		}
		fmt.Fprintf(os.Stderr, "liflbench: wall-clock metrics scaled by %g (self-test handicap)\n", *handicap)
	}
	if err := suite.Save(*out); err != nil {
		fmt.Fprintf(os.Stderr, "liflbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "liflbench: wrote %d records to %s\n", len(suite.Runs), *out)

	if *baseline == "" {
		return
	}
	base, err := perfrec.Load(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "liflbench: loading baseline: %v\n", err)
		os.Exit(1)
	}
	// Narrow the baseline to what this invocation was asked to measure —
	// but never to the current registry's names alone, or a deleted
	// registry entry would vanish from the comparison instead of failing
	// it as "missing". An explicit -scenario list is user intent; -short
	// filters by the baseline's own class tags; a full run compares
	// against the whole baseline.
	switch {
	case *names != "":
		base = perfrec.FilterScenarios(base, append(selected, placementScenario))
	case *short:
		base = perfrec.FilterClass(base, scenario.ClassShort)
	}
	opt := perfrec.Options{Tolerance: *tolerance, WallTolerance: *wallTol}
	if *tolerance == 0 {
		opt.Tolerance = -1 // flag 0 means exact equality, not "use default"
	}
	verdicts := perfrec.Compare(base, suite, opt)
	regs := perfrec.Regressions(verdicts)
	for _, v := range verdicts {
		fmt.Println(v)
	}
	if len(regs) > 0 {
		fmt.Fprintf(os.Stderr, "liflbench: %d regression(s) vs %s:\n", len(regs), *baseline)
		for _, v := range regs {
			fmt.Fprintf(os.Stderr, "  %s\n", v)
		}
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "liflbench: no regressions vs %s (%d comparisons)\n", *baseline, len(verdicts))
}

// selectScenarios resolves the -scenario/-short selection against the
// registry, preserving registry (sorted) order.
func selectScenarios(csv string, short bool) ([]string, error) {
	all := scenario.Names()
	want := map[string]bool{}
	if csv != "" {
		for _, n := range strings.Split(csv, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			if _, ok := scenario.Get(n); !ok {
				return nil, fmt.Errorf("unknown scenario %q (have: %s)", n, strings.Join(all, ", "))
			}
			want[n] = true
		}
		if len(want) == 0 {
			return nil, fmt.Errorf("-scenario selected nothing")
		}
	}
	var out []string
	for _, n := range all {
		if csv != "" && !want[n] {
			continue
		}
		if short && !scenario.MustGet(n).Bench.ShortClass() {
			if want[n] {
				// The operator named it and -short silently eating it would
				// make CI configs believe it was measured and gated.
				fmt.Fprintf(os.Stderr, "liflbench: warning: -short drops explicitly named %s-class scenario %q\n",
					scenario.MustGet(n).Bench.ClassOrDefault(), n)
			}
			continue
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("selection matched no scenarios")
	}
	return out, nil
}

// measurePlacement records the §6.1 orchestration-overhead microbenchmark
// (best-of-3 inside experiments.Overhead) as a synthetic suite entry, so
// the placement engine's decision time is part of the trajectory.
func measurePlacement() perfrec.Run {
	r := experiments.Overhead(10_000)
	return perfrec.Run{
		Scenario:    placementScenario,
		Class:       scenario.ClassShort,
		Repeats:     3,
		WallNS:      int64(r.PlacementWall),
		PlacementUS: float64(r.PlacementWall.Nanoseconds()) / 1e3,
	}
}

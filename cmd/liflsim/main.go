// Command liflsim regenerates every table and figure of the paper's
// evaluation from the LIFL reproduction library.
//
// Usage:
//
//	liflsim fig4               # NH vs WH timelines + LIFL (Fig. 4, Fig. 7(c))
//	liflsim fig7               # data-plane transfer latency/CPU (Fig. 7(a,b))
//	liflsim fig8               # orchestration ablation (Fig. 8(a-d))
//	liflsim fig9r18            # ResNet-18 time/cost-to-accuracy + Fig. 10(a-c)
//	liflsim fig9r152           # ResNet-152 time/cost-to-accuracy + Fig. 10(d-f)
//	liflsim fig11              # buffered-async vs synchronous (Fig. 11 / Appendix A)
//	liflsim fig13              # message-queuing overheads (Appendix F)
//	liflsim geo                # multi-cell federation fabric + cell failover
//	liflsim overhead           # orchestration overhead (§6.1)
//	liflsim scenarios          # list the workload registry
//	liflsim scenario <name>    # sweep one registry scenario
//	liflsim watch <name>       # run one scenario with a live dashboard
//	liflsim spans <name>       # run one scenario and print task-span Gantts
//	liflsim plan <name>        # dry-run a scenario's reconfiguration plan
//	liflsim replay <run.traj>  # summarize a stored trajectory file
//	liflsim all                # everything above (except replay)
//
// -parallel N fans each verb's independent runs across N workers (N >= 1;
// pass the CPU count explicitly for a full fan-out). Every run owns its
// own simulation engine, so output is byte-identical to the serial run for
// any worker count.
//
// -workers N parallelizes *inside* each run: the staged round loop's
// update materialization, per-cell construction and rounds, and
// aggregation folds share an N-goroutine pool (N >= 1). Output is
// byte-identical for any value. When not passed, registry scenarios keep
// their own pinned worker counts (e.g. 10m-clients pins 8).
//
// -cellplan PLAN overrides the reconfiguration plan of every scenario the
// command sweeps (elastic fabric: round-stamped join/drain/weight pushes,
// applied only by fabric scenarios). The DSL is semicolon-separated steps:
//
//	liflsim -cellplan "25:join w=0.5 n=1440; 40:drain 1" scenario geo-4cell
//	liflsim -cellplan "60:weight 2 w=1.5 n=300" plan geo-4cell
//
// The `plan` verb dry-runs the schedule: the fabric validates the plan
// wholesale against the scenario's shape and prints the versioned pushes it
// would apply, without running the workload.
//
// -traj DIR makes every scenario sweep also stream per-round observations
// into DIR, one bounded-memory .traj file per run (internal/trajstore).
// Replay them afterwards:
//
//	liflsim replay DIR/traj-100k--sf.traj              # run summary
//	liflsim replay -milestones DIR/traj-100k--sf.traj  # + milestone crossings
//	liflsim replay -at 250 DIR/traj-100k--sf.traj      # + round 250's record
//
// -telemetry DIR makes every scenario sweep also write one versioned
// telemetry snapshot per run into DIR (<run>.telemetry.json — the
// internal/obs counters/gauges/histograms plane; off by default, and
// byte-identical for a fixed seed at any -parallel/-workers/retention).
// -telemetry-wall opts the snapshots into the volatile wall-clock
// section; -perfetto additionally writes <run>.trace.json, a Chrome
// trace_event export of the run's virtual-time spans, loadable in
// Perfetto:
//
//	liflsim -telemetry /tmp/obs -perfetto scenario fig8-ablation
//
// `liflsim watch <name>` runs one scenario sequentially with a live
// dashboard: a repainting panel on a TTY (accuracy progress, stage wall
// breakdown, per-cell shares), one line per round otherwise.
// `liflsim spans <name>` runs one scenario and prints each run's task
// spans as the Fig. 4-style ASCII Gantt.
//
// Exit status: 0 on success, 1 on runtime failure, 2 on usage errors
// (missing verb, -parallel < 1, -workers < 1, unknown scenario name,
// and replay given an unreadable/corrupt file or -at outside the stored
// round range).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/scenario"
)

func main() {
	seed := flag.Int64("seed", 1, "experiment seed")
	parallel := flag.Int("parallel", 1, "workers for independent runs (>= 1)")
	workers := flag.Int("workers", 1, "goroutines per run's staged round loop (>= 1)")
	cellplan := flag.String("cellplan", "", `reconfiguration plan overriding scenario plans, e.g. "25:join w=0.5 n=1440; 40:drain 1"`)
	traj := flag.String("traj", "", "directory to stream per-run trajectory files into (scenario verbs)")
	telemetry := flag.String("telemetry", "", "directory to write per-run telemetry snapshots into (scenario verbs)")
	telemetryWall := flag.Bool("telemetry-wall", false, `opt telemetry snapshots into wall-clock capture (the volatile "wall" section)`)
	perfetto := flag.Bool("perfetto", false, "with -telemetry: also write per-run Chrome/Perfetto trace files")
	at := flag.Int("at", 0, "with replay: print the stored record for this round")
	milestones := flag.Bool("milestones", false, "with replay: list reconstructed milestone crossings")
	flag.Usage = usage
	flag.Parse()
	// Go's flag parsing stops at the first verb; keep consuming so
	// `liflsim all -parallel 8` works as well as `liflsim -parallel 8 all`.
	var verbs []string
	for args := flag.Args(); len(args) > 0; args = flag.Args() {
		if len(args[0]) > 1 && strings.HasPrefix(args[0], "-") {
			flag.CommandLine.Parse(args) // exits on bad flags (ExitOnError)
			continue
		}
		verbs = append(verbs, args[0])
		flag.CommandLine.Parse(args[1:])
	}
	if len(verbs) < 1 {
		usage()
		os.Exit(2)
	}
	// A worker pool needs at least one worker; silently mapping 0 or a
	// negative to "one per CPU" hid flag typos (-parallel -4), so reject.
	if *parallel < 1 {
		fmt.Fprintf(os.Stderr, "liflsim: -parallel must be >= 1 (got %d)\n", *parallel)
		usage()
		os.Exit(2)
	}
	if *workers < 1 {
		fmt.Fprintf(os.Stderr, "liflsim: -workers must be >= 1 (got %d)\n", *workers)
		usage()
		os.Exit(2)
	}
	experiments.Parallelism = *parallel
	// Registry scenarios carry their own seeds and worker pins; only an
	// explicitly passed -seed / -workers overrides them (the zero value of
	// each experiments global = keep the scenario's default).
	scenarioSeed := int64(0)
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed":
			scenarioSeed = *seed
		case "workers":
			experiments.Workers = *workers
		case "at":
			replayAt, replayAtSet = *at, true
		}
	})
	// The plan DSL is validated here like scenario names below: a string
	// that doesn't spell a well-formed plan is a usage error up front. (The
	// fabric's schedule-level validation still applies per run.)
	if *cellplan != "" {
		plan, err := parseCellPlan(*cellplan)
		if err != nil {
			fmt.Fprintf(os.Stderr, "liflsim: %v\n", err)
			usage()
			os.Exit(2)
		}
		experiments.CellPlan = plan
	}
	experiments.TrajDir = *traj
	// Wall capture and the Perfetto export are modes of the telemetry
	// plane, so both flags require a destination directory.
	if (*telemetryWall || *perfetto) && *telemetry == "" {
		fmt.Fprintln(os.Stderr, "liflsim: -telemetry-wall and -perfetto require -telemetry DIR")
		usage()
		os.Exit(2)
	}
	experiments.TelemetryDir = *telemetry
	experiments.TelemetryWall = *telemetryWall
	experiments.PerfettoOut = *perfetto
	replayMilestones = *milestones
	// Resolve the whole verb sequence before executing any of it: an
	// unknown verb or scenario name is a usage error (exit 2) caught up
	// front, not a mid-sequence failure after earlier verbs already ran.
	type step struct {
		what string
		seed int64
	}
	var steps []step
	for i := 0; i < len(verbs); i++ {
		what := verbs[i]
		runSeed := *seed
		if _, ok := handlers[what]; !ok && what != "scenario" && what != "plan" && what != "replay" &&
			what != "watch" && what != "spans" {
			fmt.Fprintf(os.Stderr, "liflsim: unknown experiment %q\n", what)
			usage()
			os.Exit(2)
		}
		if what == "scenario" || what == "plan" || what == "watch" || what == "spans" {
			verb := what
			if i+1 >= len(verbs) {
				fmt.Fprintf(os.Stderr, "liflsim: %s requires a scenario name (see `liflsim scenarios`)\n", verb)
				usage()
				os.Exit(2)
			}
			i++
			if _, ok := scenario.Get(verbs[i]); !ok {
				fmt.Fprintf(os.Stderr, "liflsim: unknown scenario %q (have: %s)\n",
					verbs[i], strings.Join(scenario.Names(), ", "))
				usage()
				os.Exit(2)
			}
			what = verb + ":" + verbs[i]
			runSeed = scenarioSeed
		}
		if what == "replay" {
			if i+1 >= len(verbs) {
				fmt.Fprintln(os.Stderr, "liflsim: replay requires a trajectory file (write one with -traj)")
				usage()
				os.Exit(2)
			}
			i++
			// Validate the file (and -at range) up front like scenario
			// names: a corrupt or missing trajectory is a usage error, not
			// a mid-sequence runtime failure.
			if err := validateReplay(verbs[i]); err != nil {
				fmt.Fprintf(os.Stderr, "liflsim: %v\n", err)
				usage()
				os.Exit(2)
			}
			what = "replay:" + verbs[i]
		}
		steps = append(steps, step{what, runSeed})
	}
	for _, s := range steps {
		if err := run(os.Stdout, s.what, s.seed); err != nil {
			fmt.Fprintf(os.Stderr, "liflsim: %v\n", err)
			os.Exit(1)
		}
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: liflsim [-seed n] [-parallel n] [-workers n] [-traj dir] [-telemetry dir [-telemetry-wall] [-perfetto]] [-cellplan plan] {fig4|fig7|fig8|fig9r18|fig9r152|fig11|fig13|geo|overhead|appendixe|ablation|verify|verifyfull|scenarios|scenario <name>|watch <name>|spans <name>|plan <name>|all}...")
	fmt.Fprintln(os.Stderr, "       liflsim replay [-at n] [-milestones] <run.traj>")
	fmt.Fprintln(os.Stderr, `       liflsim -cellplan "25:join w=0.5 n=1440; 40:drain 1; 60:weight 2 w=1.5 n=300" plan geo-4cell`)
	fmt.Fprintln(os.Stderr, "       liflsim -telemetry /tmp/obs -perfetto scenario fig8-ablation")
}

// stdoutIsTTY reports whether stdout is an interactive terminal — the
// switch between the watch verb's repainting panel and its line-per-round
// degradation (what CI and piped invocations get).
func stdoutIsTTY() bool {
	fi, err := os.Stdout.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

// handlers is the single verb table: run dispatches through it and main
// validates the whole verb sequence against it before any verb executes,
// so the two can never drift. The scenario:<name> and replay:<path>
// forms are handled separately in run.
var handlers = map[string]func(w io.Writer, seed int64) error{
	"fig4": func(w io.Writer, _ int64) error {
		fmt.Fprint(w, experiments.FormatFig4(experiments.Fig4(), experiments.Fig7c()))
		return nil
	},
	"fig7": func(w io.Writer, _ int64) error {
		fmt.Fprint(w, experiments.FormatFig7(experiments.Fig7ab()))
		return nil
	},
	"fig8": func(w io.Writer, _ int64) error {
		fmt.Fprint(w, experiments.FormatFig8(experiments.Fig8(nil)))
		return nil
	},
	"fig9r18": func(w io.Writer, seed int64) error {
		rows := experiments.Fig9(model.ResNet18, seed)
		fmt.Fprint(w, experiments.FormatFig9(rows))
		fmt.Fprint(w, experiments.FormatFig10(experiments.Fig10(rows)))
		return nil
	},
	"fig9r152": func(w io.Writer, seed int64) error {
		rows := experiments.Fig9(model.ResNet152, seed)
		fmt.Fprint(w, experiments.FormatFig9(rows))
		fmt.Fprint(w, experiments.FormatFig10(experiments.Fig10(rows)))
		return nil
	},
	"fig11": func(w io.Writer, seed int64) error {
		fmt.Fprint(w, experiments.FormatFig11(experiments.Fig11(seed)))
		return nil
	},
	"fig13": func(w io.Writer, _ int64) error {
		fmt.Fprint(w, experiments.FormatFig13(experiments.Fig13()))
		return nil
	},
	"geo": func(w io.Writer, seed int64) error {
		out, err := experiments.RunGeo(seed)
		if err != nil {
			return err
		}
		fmt.Fprint(w, out)
		return nil
	},
	"overhead": func(w io.Writer, _ int64) error {
		fmt.Fprint(w, experiments.FormatOverhead(experiments.Overhead(10_000)))
		return nil
	},
	"appendixe": func(w io.Writer, _ int64) error {
		fmt.Fprint(w, experiments.FormatAppendixE(experiments.AppendixE()))
		return nil
	},
	"verify": func(w io.Writer, _ int64) error {
		fmt.Fprint(w, experiments.FormatVerify(experiments.Verify(false)))
		return nil
	},
	"verifyfull": func(w io.Writer, _ int64) error {
		fmt.Fprint(w, experiments.FormatVerify(experiments.Verify(true)))
		return nil
	},
	"scenarios": func(w io.Writer, _ int64) error {
		fmt.Fprint(w, experiments.FormatScenarioList())
		return nil
	},
	"ablation": func(w io.Writer, _ int64) error {
		fmt.Fprint(w, experiments.FormatAblations(
			experiments.AblateFanIn(nil), experiments.AblateEWMA(nil), experiments.AblatePlacement()))
		return nil
	},
}

// "all" recurses through run, so it registers in init to break the
// handlers → run → handlers initialization cycle.
func init() {
	handlers["all"] = func(w io.Writer, seed int64) error {
		for _, sub := range []string{"fig7", "fig4", "fig13", "fig8", "overhead", "appendixe", "ablation", "fig9r18", "fig9r152", "fig11", "geo"} {
			if err := run(w, sub, seed); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	}
}

func run(w io.Writer, what string, seed int64) error {
	if name, ok := strings.CutPrefix(what, "scenario:"); ok {
		out, err := experiments.RunScenario(name, seed)
		if err != nil {
			return err
		}
		fmt.Fprint(w, out)
		return nil
	}
	if name, ok := strings.CutPrefix(what, "watch:"); ok {
		return experiments.WatchScenario(w, stdoutIsTTY(), name, seed)
	}
	if name, ok := strings.CutPrefix(what, "spans:"); ok {
		out, err := experiments.SpansScenario(name, seed)
		if err != nil {
			return err
		}
		fmt.Fprint(w, out)
		return nil
	}
	if name, ok := strings.CutPrefix(what, "plan:"); ok {
		out, err := experiments.PlanDiff(name)
		if err != nil {
			return err
		}
		fmt.Fprint(w, out)
		return nil
	}
	if path, ok := strings.CutPrefix(what, "replay:"); ok {
		return replayCmd(w, path)
	}
	h, ok := handlers[what]
	if !ok {
		return fmt.Errorf("unknown experiment %q", what)
	}
	return h(w, seed)
}

package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// SpansScenario runs the named scenario and renders each run's task spans
// as an ASCII Gantt (the `liflsim spans` verb) — the standing visual of
// Fig. 4 / Fig. 7(c), now available for any registered scenario. Runs
// execute sequentially with a private telemetry registry each, whose span
// log carries the systems' task spans; the busiest eight actors (by total
// span time, ties broken by name) get rows. Fabric runs are skipped with a
// note: cells step in parallel and record no task spans (see internal/cell).
func SpansScenario(name string, seed int64) (string, error) {
	sc, ok := scenario.Get(name)
	if !ok {
		return "", fmt.Errorf("unknown scenario %q (have: %s)", name, strings.Join(scenario.Names(), ", "))
	}
	if seed != 0 {
		sc.Seed = seed
	}
	if Workers > 0 {
		sc.Workers = Workers
	}
	runs := sc.Expand()
	var b strings.Builder
	fmt.Fprintf(&b, "Spans for %s — %s\n", sc.Name, sc.Description)
	for i := range runs {
		if runs[i].Cfg.Cells != nil {
			fmt.Fprintf(&b, "\nrun %s: fabric run (cells step in parallel; no shared span log) — skipped\n", runs[i].Label)
			continue
		}
		// The round envelopes share the log's cap with the task spans. Every
		// envelope follows at least one task span of its round, so a log of
		// twice the default cap always holds the first DefaultMaxSpans task
		// spans — the ones a task-span-only log would have kept.
		reg := obs.New(obs.Options{MaxSpans: 2 * obs.DefaultMaxSpans})
		runs[i].Cfg.Telemetry = reg
		if _, _, err := harness.Execute(runs[i].Cfg); err != nil {
			return "", fmt.Errorf("spans %s/%s: %w", name, runs[i].Label, err)
		}
		spans := taskSpans(reg)
		if len(spans) > obs.DefaultMaxSpans {
			spans = spans[:obs.DefaultMaxSpans]
		}
		fmt.Fprintf(&b, "\nrun %s (%d spans):\n", runs[i].Label, len(spans))
		b.WriteString(renderGantt(spans, busiestActors(spans, 8), 0, 100))
	}
	return b.String(), nil
}

// busiestActors picks the top n actors by total span time, descending,
// ties broken by name — a deterministic row order for the Gantt.
func busiestActors(spans []obs.Span, n int) []string {
	totals := make(map[string]sim.Duration)
	for _, s := range spans {
		totals[s.Actor] += s.End - s.Start
	}
	actors := make([]string, 0, len(totals))
	for a := range totals {
		actors = append(actors, a)
	}
	sort.Slice(actors, func(i, j int) bool {
		if totals[actors[i]] != totals[actors[j]] {
			return totals[actors[i]] > totals[actors[j]]
		}
		return actors[i] < actors[j]
	})
	if len(actors) > n {
		actors = actors[:n]
	}
	return actors
}

package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/sim"
)

// glyphs for rendering, one per task kind.
var glyphs = map[string]rune{
	obs.KindNetwork: '▒',
	obs.KindAgg:     '█',
	obs.KindEval:    '▓',
}

// taskSpans returns the spans of a registry's span log without the round
// loops' KindRound envelopes — the systems' task spans a Gantt draws.
func taskSpans(reg *obs.Registry) []obs.Span {
	var out []obs.Span
	for _, s := range reg.Spans().Spans() {
		if s.Kind != obs.KindRound {
			out = append(out, s)
		}
	}
	return out
}

// renderGantt draws an ASCII timeline like Fig. 4 / Fig. 7(c): one row per
// actor, width columns spanning [0, horizon] (0 = the latest span end).
// Actors render in the given order; actors with no spans still get a row.
// Within a row spans paint in start order, later ones over earlier ones.
func renderGantt(spans []obs.Span, actors []string, horizon sim.Duration, width int) string {
	if width <= 0 {
		width = 100
	}
	if horizon <= 0 {
		for _, s := range spans {
			if s.End > horizon {
				horizon = s.End
			}
		}
	}
	if horizon == 0 {
		horizon = sim.Second
	}
	byActor := make(map[string][]obs.Span)
	for _, s := range spans {
		byActor[s.Actor] = append(byActor[s.Actor], s)
	}
	var b strings.Builder
	scale := float64(width) / float64(horizon)
	for _, a := range actors {
		ss := byActor[a]
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
		row := make([]rune, width)
		for i := range row {
			row[i] = ' '
		}
		for _, s := range ss {
			g, ok := glyphs[s.Kind]
			if !ok {
				g = '?'
			}
			i0 := int(float64(s.Start) * scale)
			i1 := int(float64(s.End) * scale)
			if i1 <= i0 {
				i1 = i0 + 1
			}
			for i := i0; i < i1 && i < width; i++ {
				row[i] = g
			}
		}
		fmt.Fprintf(&b, "%-10s|%s|\n", a, string(row))
	}
	pad := max(width-20, 1) // rows narrower than the legend still render
	fmt.Fprintf(&b, "%-10s 0%sto %v   (%s=Network %s=Agg %s=Eval)\n",
		"", strings.Repeat(" ", pad), horizon.Round(sim.Second),
		string(glyphs[obs.KindNetwork]), string(glyphs[obs.KindAgg]), string(glyphs[obs.KindEval]))
	return b.String()
}

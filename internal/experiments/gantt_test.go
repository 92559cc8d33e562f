package experiments

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

func span(actor, kind string, start, end sim.Duration) obs.Span {
	return obs.Span{Actor: actor, Kind: kind, Start: start, End: end}
}

func TestRenderGantt(t *testing.T) {
	// Log order is not start order: LF1's Agg span arrives first but
	// starts later, so the Network span must not paint over it.
	spans := []obs.Span{
		span("LF1", obs.KindAgg, 5*sim.Second, 10*sim.Second),
		span("LF1", obs.KindNetwork, 0, 6*sim.Second),
		span("Top", obs.KindEval, 8*sim.Second, 10*sim.Second),
	}
	out := renderGantt(spans, []string{"LF1", "Top"}, 10*sim.Second, 40)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("rows = %d:\n%s", len(lines), out)
	}
	lf1 := strings.Repeat("▒", 20) + strings.Repeat("█", 20)
	if want := "LF1       |" + lf1 + "|"; lines[0] != want {
		t.Fatalf("LF1 row:\n got %q\nwant %q", lines[0], want)
	}
	if !strings.HasPrefix(lines[1], "Top") || !strings.Contains(lines[1], "▓") {
		t.Fatalf("Top row: %q", lines[1])
	}
}

// TestRenderGanttGroupsByActor: spans from different actors interleave in
// the log; each row draws only its own actor's spans, in start order.
func TestRenderGanttGroupsByActor(t *testing.T) {
	spans := []obs.Span{
		span("Top", obs.KindEval, 5*sim.Second, 8*sim.Second),
		span("LF1", obs.KindAgg, 2*sim.Second, 3*sim.Second),
		span("LF2", obs.KindNetwork, 0, sim.Second),
		span("LF1", obs.KindNetwork, 0, 3*sim.Second),
	}
	out := renderGantt(spans, []string{"LF1", "Top", "LF2"}, 10*sim.Second, 10)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	want := []string{
		"LF1       |▒▒█       |",
		"Top       |     ▓▓▓  |",
		"LF2       |▒         |",
	}
	if len(lines) != len(want)+1 {
		t.Fatalf("rows = %d:\n%s", len(lines), out)
	}
	for i, w := range want {
		if lines[i] != w {
			t.Fatalf("row %d:\n got %q\nwant %q", i, lines[i], w)
		}
	}
}

func TestRenderGanttDefaults(t *testing.T) {
	spans := []obs.Span{span("a", obs.KindAgg, 0, sim.Second)}
	// Zero horizon and width fall back to sane defaults without panicking;
	// an actor without spans still gets an (empty) row.
	out := renderGantt(spans, []string{"a", "missing"}, 0, 0)
	if !strings.Contains(out, "missing   |"+strings.Repeat(" ", 100)+"|") {
		t.Fatalf("missing actor row absent:\n%s", out)
	}
}

// taskSpans drops the round loops' envelopes, keeping log order.
func TestTaskSpansDropsEnvelopes(t *testing.T) {
	reg := obs.New(obs.Options{})
	reg.Spans().Add(span("LF1", obs.KindAgg, 0, sim.Second))
	reg.Spans().Add(span("round", obs.KindRound, 0, 2*sim.Second))
	reg.Spans().Add(span("Top", obs.KindEval, sim.Second, 2*sim.Second))
	got := taskSpans(reg)
	if len(got) != 2 || got[0].Actor != "LF1" || got[1].Actor != "Top" {
		t.Fatalf("task spans = %+v", got)
	}
}

package obs

import (
	"strconv"
	"strings"

	"repro/internal/sim"
)

// Chrome trace_event process IDs: virtual-time spans render as pid 1,
// opt-in wall-clock stage spans as pid 2, so the two clocks never share
// a timeline row in the Perfetto UI.
const (
	perfettoVirtualPID = 1
	perfettoWallPID    = 2
)

// Perfetto renders the registry's span logs as Chrome/Perfetto
// trace_event JSON (load it at ui.perfetto.dev or chrome://tracing).
// Virtual-time spans — the round envelopes plus the systems'
// Network/Agg/Eval task spans — appear as pid 1 with
// one thread per actor in first-appearance order; timestamps are exact
// microseconds with nanosecond decimals, so the bytes are as
// deterministic as the spans. Under CaptureWall the wall stage spans
// render as pid 2. Safe on a nil registry (renders an empty trace).
func (r *Registry) Perfetto() []byte {
	var virtual, wall []Span
	if r != nil {
		r.st.mu.Lock()
		virtual = append(virtual, r.st.spans.Spans()...)
		if r.st.opts.CaptureWall {
			wall = append(wall, r.st.wall.Spans()...)
		}
		r.st.mu.Unlock()
	}
	return PerfettoTrace(virtual, wall)
}

// PerfettoTrace renders explicit span slices as trace_event JSON —
// virtual on pid 1, wall (may be nil) on pid 2 — for span slices held
// outside a registry.
func PerfettoTrace(virtual, wall []Span) []byte {
	var b strings.Builder
	b.WriteString(`{"displayTimeUnit":"ms","otherData":{"schema":"lifl-perfetto/1"},"traceEvents":[`)
	n := writeProcess(&b, perfettoVirtualPID, "virtual-time", virtual, 0)
	writeProcess(&b, perfettoWallPID, "wall-clock", wall, n)
	b.WriteString("]}")
	return []byte(b.String())
}

// writeProcess emits one process's metadata and span events; written
// counts events already emitted (for comma placement) and the return
// value carries the running total.
func writeProcess(b *strings.Builder, pid int, procName string, spans []Span, written int) int {
	if len(spans) == 0 {
		return written
	}
	comma := func() {
		if written > 0 {
			b.WriteByte(',')
		}
		written++
	}
	comma()
	b.WriteString(`{"ph":"M","name":"process_name","pid":`)
	b.WriteString(strconv.Itoa(pid))
	b.WriteString(`,"args":{"name":`)
	b.WriteString(strconv.Quote(procName))
	b.WriteString(`}}`)
	// Thread IDs assign per actor in first-appearance order — the spans
	// arrive in deterministic log order, so the assignment is too.
	tids := map[string]int{}
	for _, s := range spans {
		if _, ok := tids[s.Actor]; ok {
			continue
		}
		tid := len(tids) + 1
		tids[s.Actor] = tid
		comma()
		b.WriteString(`{"ph":"M","name":"thread_name","pid":`)
		b.WriteString(strconv.Itoa(pid))
		b.WriteString(`,"tid":`)
		b.WriteString(strconv.Itoa(tid))
		b.WriteString(`,"args":{"name":`)
		b.WriteString(strconv.Quote(s.Actor))
		b.WriteString(`}}`)
	}
	for _, s := range spans {
		comma()
		b.WriteString(`{"ph":"X","pid":`)
		b.WriteString(strconv.Itoa(pid))
		b.WriteString(`,"tid":`)
		b.WriteString(strconv.Itoa(tids[s.Actor]))
		b.WriteString(`,"ts":`)
		b.WriteString(microseconds(s.Start))
		b.WriteString(`,"dur":`)
		b.WriteString(microseconds(s.End - s.Start))
		b.WriteString(`,"name":`)
		if s.Kind == KindRound {
			b.WriteString(strconv.Quote("round " + strconv.Itoa(s.Round)))
		} else {
			b.WriteString(strconv.Quote(s.Kind))
		}
		b.WriteString(`,"cat":`)
		b.WriteString(strconv.Quote(strings.ToLower(s.Kind)))
		b.WriteString(`,"args":{"round":`)
		b.WriteString(strconv.Itoa(s.Round))
		b.WriteString(`}}`)
	}
	return written
}

// microseconds renders a nanosecond duration as the exact trace_event
// microsecond number (three decimals), never via float formatting — the
// export's byte-determinism lives here.
func microseconds(d sim.Duration) string {
	neg := ""
	if d < 0 {
		// Negative durations never happen on well-formed spans; render
		// them honestly rather than mod-mangling the sign.
		neg, d = "-", -d
	}
	return neg + strconv.FormatInt(int64(d)/1000, 10) + "." + pad3(int64(d)%1000)
}

func pad3(n int64) string {
	s := strconv.FormatInt(n, 10)
	return "000"[:3-len(s)] + s
}

package obs

import "repro/internal/sim"

// Span kinds. KindRound labels the per-round (or per-version) envelope
// spans the round loops append; every other span of round R nests inside
// R's envelope — the invariant the Perfetto export (and its CI schema
// check) relies on. The task kinds are the systems' spans and match the
// paper's Fig. 4 / Fig. 7(c) legend.
const (
	KindRound   = "Round"
	KindNetwork = "Network" // receiving/transferring model updates
	KindAgg     = "Agg"     // aggregation compute
	KindEval    = "Eval"    // post-round global model evaluation
)

// Span is one task execution by one actor on one timeline. Start and End
// are virtual (sim.Duration) on the Spans log and wall-clock nanoseconds
// since run start on the WallSpans log — both are int64 nanoseconds, and
// the log they sit in says which clock they mean.
type Span struct {
	Actor string // e.g. "Top", "LF1", "round", "stage"
	Kind  string // e.g. "Network", "Agg", "Eval", KindRound, "Select"
	Start sim.Duration
	End   sim.Duration
	Round int
}

// DefaultMaxSpans bounds a span log that did not choose its own cap:
// enough for every span of a figure-scale run, flat-heap for a
// million-round one (overflow is counted, not stored).
const DefaultMaxSpans = 16384

// SpanLog is a bounded append-only span store. It is single-writer by
// contract — spans are appended from serial contexts only (the engine's
// event play-out, the fabric's global loop) — which is exactly what
// makes the log, and therefore the Perfetto export, deterministic.
// A nil log is safely inert.
type SpanLog struct {
	spans   []Span
	max     int
	dropped uint64
}

// Add appends one span, or counts it as dropped past the cap.
func (l *SpanLog) Add(s Span) {
	if l == nil {
		return
	}
	max := l.max
	if max == 0 {
		max = DefaultMaxSpans
	}
	if len(l.spans) >= max {
		l.dropped++
		return
	}
	l.spans = append(l.spans, s)
}

// Spans returns the stored spans (shared backing; callers must not
// mutate).
func (l *SpanLog) Spans() []Span {
	if l == nil {
		return nil
	}
	return l.spans
}

// Len returns the number of stored spans.
func (l *SpanLog) Len() int {
	if l == nil {
		return 0
	}
	return len(l.spans)
}

// Dropped counts spans the cap rejected.
func (l *SpanLog) Dropped() uint64 {
	if l == nil {
		return 0
	}
	return l.dropped
}

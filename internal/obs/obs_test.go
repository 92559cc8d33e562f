package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
)

// TestNilSafety: a nil registry — telemetry off — must make every handle
// and method a no-op, because instrumented hot paths never branch.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("a", Det).Inc()
	r.Gauge("b", Det).Set(1)
	r.Histogram("c", Det, ExpBuckets(1, 4)).Observe(2)
	r.Sub("x/").Counter("d", Det).Add(3)
	r.Spans().Add(Span{})
	r.WallSpans().Add(Span{})
	if r.Spans().Len() != 0 || r.Spans().Dropped() != 0 {
		t.Fatal("nil span log stored something")
	}
	if got := r.GaugeValues(""); got != nil {
		t.Fatalf("nil registry returned gauges %v", got)
	}
	if !json.Valid(r.Snapshot()) {
		t.Fatalf("nil snapshot not valid JSON: %s", r.Snapshot())
	}
	if !json.Valid(r.Perfetto()) {
		t.Fatalf("nil perfetto not valid JSON: %s", r.Perfetto())
	}
}

// TestNilSpanLogSafe: a nil span log — what systems and aggregators hold
// when telemetry is off or they run on a fabric cell's Sub registry — takes
// task spans without panicking and reports itself empty.
func TestNilSpanLogSafe(t *testing.T) {
	var l *SpanLog
	l.Add(Span{Actor: "a", Kind: KindAgg, End: sim.Second, Round: 1})
	if l.Len() != 0 || l.Spans() != nil || l.Dropped() != 0 {
		t.Fatal("nil span log stored something")
	}
}

// TestRegistryBasics: handles are get-or-create, Sub prefixes names, and
// bulk reads come back name-sorted.
func TestRegistryBasics(t *testing.T) {
	r := New(Options{})
	c := r.Counter("core/rounds", Det)
	c.Inc()
	r.Counter("core/rounds", Det).Add(2)
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %d, want 3 (second handle must alias the first)", got)
	}
	sub := r.Sub("cell/1/")
	sub.Gauge("share", Det).Set(30)
	r.Gauge("cell/0/share", Det).Set(28)
	got := r.GaugeValues("cell/")
	if len(got) != 2 || got[0].Name != "cell/0/share" || got[1].Name != "cell/1/share" || got[1].Value != 30 {
		t.Fatalf("GaugeValues = %+v", got)
	}
	if sub.Spans() != nil || sub.WallSpans() != nil {
		t.Fatal("sub view exposed a span log (root-only by contract)")
	}
}

// TestHistogramBuckets pins the bucket arithmetic: v <= bounds[i] lands
// in bucket i, past-the-end lands in the overflow bucket.
func TestHistogramBuckets(t *testing.T) {
	h := New(Options{}).Histogram("h", Det, []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 4, 100} {
		h.Observe(v)
	}
	want := []uint64{2, 1, 1, 1} // {0.5,1}, {1.5}, {4}, {100}
	got := h.Counts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("counts = %v, want %v", got, want)
		}
	}
	if h.Total() != 5 {
		t.Fatalf("total = %d", h.Total())
	}
}

// TestSpanLogCap: the log bounds its heap — overflow is counted, never
// stored — so telemetry stays flat-RSS on million-round runs.
func TestSpanLogCap(t *testing.T) {
	l := &SpanLog{max: 3}
	for i := 0; i < 5; i++ {
		l.Add(Span{Round: i})
	}
	if l.Len() != 3 || l.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d, want 3/2", l.Len(), l.Dropped())
	}
}

// fill populates a registry the same way twice; adds must land in the
// same snapshot bytes regardless of which goroutine performed them.
func fill(r *Registry, parallel bool) {
	c := r.Counter("core/updates", Det)
	g := r.Gauge("core/accuracy", Det)
	h := r.Histogram("core/act_ms", Det, ExpBuckets(1, 8))
	w := r.Counter("stage/playout/wall_ns", Volatile)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		add := func(n int) {
			for j := 0; j < n; j++ {
				c.Inc()
				h.Observe(float64(j % 50))
			}
			w.Add(12345)
		}
		if parallel {
			wg.Add(1)
			go func() { defer wg.Done(); add(100) }()
		} else {
			add(100)
		}
	}
	wg.Wait()
	g.Set(0.625)
	r.Spans().Add(Span{Actor: "round", Kind: KindRound, Start: 0, End: 10 * sim.Second, Round: 1})
	r.Spans().Add(Span{Actor: "Top", Kind: "Agg", Start: sim.Second, End: 2 * sim.Second, Round: 1})
}

// TestSnapshotDeterminism: byte-identical snapshots whether the updates
// ran serially or across eight goroutines — the Workers contract at the
// registry level.
func TestSnapshotDeterminism(t *testing.T) {
	a, b := New(Options{}), New(Options{})
	fill(a, false)
	fill(b, true)
	sa, sb := a.Snapshot(), b.Snapshot()
	if !bytes.Equal(sa, sb) {
		t.Fatalf("serial vs parallel snapshots differ:\n%s\n%s", sa, sb)
	}
	if !json.Valid(sa) {
		t.Fatalf("snapshot not valid JSON: %s", sa)
	}
	if strings.Contains(string(sa), "wall") {
		t.Fatalf("default snapshot leaked wall fields: %s", sa)
	}
	if !strings.Contains(string(sa), `"core/updates":800`) {
		t.Fatalf("missing counter: %s", sa)
	}
}

// TestSnapshotWallOptIn: Volatile metrics and the stage-span count
// appear only under CaptureWall — the trajstore-style opt-in the
// acceptance criteria test by name.
func TestSnapshotWallOptIn(t *testing.T) {
	r := New(Options{CaptureWall: true})
	fill(r, false)
	r.WallSpans().Add(Span{Actor: "stage", Kind: "Select", Start: 0, End: 1000, Round: 1})
	s := string(r.Snapshot())
	if !strings.Contains(s, `"wall":{`) || !strings.Contains(s, `"stage/playout/wall_ns":98760`) {
		t.Fatalf("CaptureWall snapshot missing wall section: %s", s)
	}
	if !strings.Contains(s, `"stage_spans":1`) {
		t.Fatalf("CaptureWall snapshot missing stage spans: %s", s)
	}
	var parsed map[string]any
	if err := json.Unmarshal([]byte(s), &parsed); err != nil {
		t.Fatalf("snapshot does not parse: %v", err)
	}
	// The deterministic sections must be byte-identical to the
	// no-CaptureWall registry's: wall capture appends, never perturbs.
	plain := New(Options{})
	fill(plain, false)
	if !strings.HasPrefix(s, strings.TrimSuffix(string(plain.Snapshot()), "}")) {
		t.Fatalf("wall opt-in changed the deterministic prefix:\n%s\n%s", s, plain.Snapshot())
	}
	if r.WallSpans() == nil {
		t.Fatal("CaptureWall root must expose the wall log")
	}
	if New(Options{}).WallSpans() != nil {
		t.Fatal("wall log must be nil without CaptureWall")
	}
}

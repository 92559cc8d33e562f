package coordinator

import (
	"testing"

	"repro/internal/aggcore"
	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/fedavg"
	"repro/internal/sim"
	"repro/internal/tensor"
)

func pool(n int) []ClientID {
	out := make([]ClientID, n)
	for i := range out {
		out[i] = ClientID(rune('a' + i%26))
	}
	for i := range out {
		out[i] = ClientID(string(out[i]) + string(rune('0'+i/26)))
	}
	return out
}

func TestSelectorOverProvisions(t *testing.T) {
	s := NewSelector(sim.NewRNG(1), 0.25)
	got := s.Select(pool(100), 40)
	if len(got) != 50 { // 40 × 1.25
		t.Fatalf("selected %d, want 50", len(got))
	}
	seen := make(map[ClientID]bool)
	for _, c := range got {
		if seen[c] {
			t.Fatalf("duplicate selection %v", c)
		}
		seen[c] = true
	}
}

func TestSelectorCapsAtAvailability(t *testing.T) {
	s := NewSelector(sim.NewRNG(1), 0.5)
	if got := s.Select(pool(10), 20); len(got) != 10 {
		t.Fatalf("selected %d from pool of 10", len(got))
	}
}

func TestSelectorDeterministicPerSeed(t *testing.T) {
	a := NewSelector(sim.NewRNG(7), 0).Select(pool(50), 10)
	b := NewSelector(sim.NewRNG(7), 0).Select(pool(50), 10)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed diverged")
		}
	}
	c := NewSelector(sim.NewRNG(8), 0).Select(pool(50), 10)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical selection (suspicious)")
	}
}

func TestHeartbeatsDetectFailures(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHeartbeats(eng, 15*sim.Second)
	h.Beat("c1")
	h.Beat("c2")
	eng.After(10*sim.Second, func() { h.Beat("c1") }) // c1 stays alive
	eng.After(20*sim.Second, func() {})
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	failed := h.Failed()
	if len(failed) != 1 || failed[0] != "c2" {
		t.Fatalf("failed = %v", failed)
	}
	h.Forget("c2")
	if len(h.Failed()) != 0 {
		t.Fatal("forget did not clear")
	}
}

func TestRoundACT(t *testing.T) {
	r := Round{Started: 10 * sim.Second, Ended: 45 * sim.Second}
	if r.ACT() != 35*sim.Second {
		t.Fatalf("ACT = %v", r.ACT())
	}
}

func TestReusePickerPrefersIdleCompleted(t *testing.T) {
	eng := sim.NewEngine()
	c := cluster.New(eng, sim.NewRNG(1), costmodel.Default(), 1)
	mk := func(goal int) *aggcore.Aggregator {
		a := aggcore.New("a", aggcore.RoleLeaf, c.Nodes[0], fedavg.FedAvg{}, tensor.NewPool(1, 1))
		a.OnComplete = func(*aggcore.Aggregator, aggcore.Update) {}
		a.Mode = aggcore.Eager
		a.Assign(aggcore.RoleLeaf, goal, "", 1)
		return a
	}
	busy := mk(2) // goal 2, receives only 1 → not idle
	done := mk(1) // completes
	for _, a := range []*aggcore.Aggregator{busy, done} {
		a.Receive(aggcore.Update{Tensor: tensorOf(1), Weight: 1, Size: 100})
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	var rp ReusePicker
	if got := rp.PickIdle([]*aggcore.Aggregator{busy, done}); got != done {
		t.Fatalf("picked %v", got)
	}
	if got := rp.PickIdle([]*aggcore.Aggregator{busy}); got != nil {
		t.Fatal("picked a non-idle aggregator")
	}
	if got := rp.PickIdle(nil); got != nil {
		t.Fatal("picked from empty set")
	}
	rp.MarkConversion()
	if rp.Conversions != 1 {
		t.Fatalf("conversions = %d", rp.Conversions)
	}
}

func tensorOf(v float32) *tensor.Tensor {
	return tensor.FromSlice([]float32{v})
}

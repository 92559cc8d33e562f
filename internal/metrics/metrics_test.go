package metrics

import (
	"testing"

	"repro/internal/sim"
)

func TestMeterSlidingWindow(t *testing.T) {
	eng := sim.NewEngine()
	m := NewMeter(eng, sim.Minute)
	for i := 0; i < 30; i++ {
		i := i
		eng.At(sim.Duration(i)*2*sim.Second, func() { m.Mark() })
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// At t=58s all 30 events are inside the 60s window: rate = 0.5/s.
	if got := m.Rate(); got < 0.49 || got > 0.51 {
		t.Fatalf("rate = %v", got)
	}
	// An hour later the window is empty.
	eng.After(sim.Hour, func() {})
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if m.Rate() != 0 || m.Count() != 0 {
		t.Fatalf("stale window: rate=%v count=%d", m.Rate(), m.Count())
	}
	if m.Total != 30 {
		t.Fatalf("total = %d", m.Total)
	}
}

func TestServerMeterCaching(t *testing.T) {
	s := NewServer(sim.NewEngine())
	if s.Meter("x", sim.Minute) != s.Meter("x", sim.Hour) {
		t.Fatal("meter not cached by name")
	}
}

func TestGuards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMeter(sim.NewEngine(), 0)
}

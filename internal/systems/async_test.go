package systems

import (
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// tinySpec keeps async system tests fast: 64 real parameters, no
// virtual scaling, one layer.
func tinySpec() model.Spec {
	return model.Spec{Name: "tiny", Params: 64, PhysScale: 1, Layers: []int{64}}
}

func newAsyncRig(t *testing.T, nodes int, prm AsyncParams) (*sim.Engine, *Async) {
	t.Helper()
	eng := sim.NewEngine()
	s := NewAsync(eng, Config{Nodes: nodes, Model: tinySpec(), Seed: 9, Async: prm})
	return eng, s
}

// dispatchConst launches one client producing a constant-valued update.
func dispatchConst(s *Async, node int, val float32, weight float64, delay sim.Duration, done func()) {
	base := s.Version()
	s.Dispatch(AsyncJob{
		ID:          "c",
		Node:        node,
		Delay:       delay,
		Weight:      weight,
		BaseVersion: base,
		MakeUpdate:  func(dst *tensor.Tensor) { dst.Fill(val) },
		Done:        done,
	})
}

// Buffer of 1 is the degenerate FedBuff: every folded update is its own
// version. Versions must bump once per upload, strictly monotonically.
func TestAsyncBufferOfOne(t *testing.T) {
	eng, s := newAsyncRig(t, 1, AsyncParams{BufferK: 1})
	var bumps []AsyncVersion
	s.SetOnVersion(func(v AsyncVersion) { bumps = append(bumps, v) })
	for i := 0; i < 5; i++ {
		dispatchConst(s, 0, float32(i+1), 1, sim.Duration(i+1)*sim.Second, nil)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if s.Version() != 5 || len(bumps) != 5 {
		t.Fatalf("version = %d, bumps = %d, want 5 each", s.Version(), len(bumps))
	}
	for i, v := range bumps {
		if v.Version != i+1 {
			t.Fatalf("bump %d carries version %d", i, v.Version)
		}
		if v.Updates != 1 {
			t.Fatalf("bump %d folded %d updates, want 1", i, v.Updates)
		}
		if v.End < v.Installed {
			t.Fatalf("bump %d: eval ended before install", i)
		}
	}
	if s.Received != 5 || s.Folded != 5 {
		t.Fatalf("received %d folded %d", s.Received, s.Folded)
	}
}

// The ScaleAdd merge: with MixRate 0.5 and K=2, version 1's global must be
// the exact midpoint of the old global and the buffer mean.
func TestAsyncMergeUsesMixRate(t *testing.T) {
	eng, s := newAsyncRig(t, 1, AsyncParams{BufferK: 2, MixRate: 0.5})
	g0 := s.Global().Clone()
	dispatchConst(s, 0, 2, 1, sim.Second, nil)
	dispatchConst(s, 0, 4, 1, sim.Second, nil)
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if s.Version() != 1 {
		t.Fatalf("version = %d", s.Version())
	}
	// Buffer mean is the constant 3 vector; merged = 0.5·g0 + 0.5·3.
	want := g0.Clone()
	mean := g0.Clone()
	mean.Fill(3)
	if err := want.ScaleAdd(0.5, 0.5, mean); err != nil {
		t.Fatal(err)
	}
	d, err := s.Global().MaxAbsDiff(want)
	if err != nil || d != 0 {
		t.Fatalf("merged global off by %v (%v)", d, err)
	}
}

// A max-staleness update is discarded at fold time: it releases its shm
// reference, counts as discarded, and never advances the buffer.
func TestAsyncMaxStalenessDiscards(t *testing.T) {
	eng, s := newAsyncRig(t, 1, AsyncParams{BufferK: 2, MaxStaleness: 1})
	// Two fresh updates advance to version 1.
	dispatchConst(s, 0, 1, 1, sim.Second, nil)
	dispatchConst(s, 0, 1, 1, sim.Second, nil)
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if s.Version() != 1 {
		t.Fatalf("version = %d", s.Version())
	}
	// One update stuck on base version 0: by the time two more fresh pairs
	// advance the model to version 3, its lag (3) exceeds MaxStaleness 1...
	stale := AsyncJob{
		ID: "stale", Node: 0, Delay: 40 * sim.Second, Weight: 1, BaseVersion: 0,
		MakeUpdate: func(dst *tensor.Tensor) { dst.Fill(999) },
	}
	s.Dispatch(stale)
	for i := 0; i < 4; i++ {
		dispatchConst(s, 0, 1, 1, sim.Second, nil)
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if s.Version() != 3 {
		t.Fatalf("version = %d, want 3 (two fresh pairs)", s.Version())
	}
	if s.Discarded() != 1 {
		t.Fatalf("discarded = %d, want 1", s.Discarded())
	}
	// ...and the poisoned 999 values must not have leaked into the model.
	for i, x := range s.Global().Data {
		if x > 10 {
			t.Fatalf("global[%d] = %v: stale update leaked in", i, x)
		}
	}
	// All shm references (folded and discarded alike) must have drained.
	if used := s.Cluster.Nodes[0].Shm.Len(); used != 0 {
		t.Fatalf("shm holds %d objects after idle", used)
	}
}

// Cross-node ingest: updates landing on a non-buffer node relay through
// the inter-node gateway path and still fold; the edge commit frees the
// training slot (Done) before the relay completes.
func TestAsyncCrossNodeRelay(t *testing.T) {
	eng, s := newAsyncRig(t, 3, AsyncParams{BufferK: 3})
	doneAt := make([]sim.Duration, 0, 3)
	for i := 0; i < 3; i++ {
		node := i // nodes 0 (buffer), 1, 2
		dispatchConst(s, node, 1, 1, sim.Second, func() {
			doneAt = append(doneAt, eng.Now())
		})
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if s.Version() != 1 {
		t.Fatalf("version = %d", s.Version())
	}
	if len(doneAt) != 3 {
		t.Fatalf("%d slots freed", len(doneAt))
	}
	if s.GWs[1].SentRemote != 1 || s.GWs[2].SentRemote != 1 {
		t.Fatalf("remote sends = %d/%d, want 1/1", s.GWs[1].SentRemote, s.GWs[2].SentRemote)
	}
	if s.GWs[0].RelayedIn != 2 {
		t.Fatalf("buffer node relayed in %d, want 2", s.GWs[0].RelayedIn)
	}
	if s.Track.InFlight() != 0 || s.Track.Completed() != 3 {
		t.Fatalf("tracker: %d in flight, %d completed", s.Track.InFlight(), s.Track.Completed())
	}
}

// Staleness accounting: an update dispatched against version 0 but folded
// after bumps must be damped and counted in MeanStaleness.
func TestAsyncStalenessWeighting(t *testing.T) {
	eng, s := newAsyncRig(t, 1, AsyncParams{BufferK: 2, StalenessHalfLife: 1})
	// As soon as version 1 exists, dispatch a fresh client based on it, so
	// version 2's buffer mixes a lag-0 and a lag-1 contribution.
	s.SetOnVersion(func(v AsyncVersion) {
		if v.Version == 1 {
			dispatchConst(s, 0, 0, 1, sim.Second, nil)
		}
	})
	// Laggard trained against version 0, arriving after version 1 exists.
	s.Dispatch(AsyncJob{
		ID: "laggard", Node: 0, Delay: 30 * sim.Second, Weight: 1, BaseVersion: 0,
		MakeUpdate: func(dst *tensor.Tensor) { dst.Fill(8) },
	})
	// Two prompt updates make version 1 at lag 0.
	dispatchConst(s, 0, 0, 1, sim.Second, nil)
	dispatchConst(s, 0, 0, 1, sim.Second, nil)
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if s.Version() != 2 {
		t.Fatalf("version = %d", s.Version())
	}
	if s.MeanStaleness() == 0 {
		t.Fatal("laggard produced no staleness")
	}
	// Version 2 = mean of {laggard 8 @ half weight, fresh 0}: (8·0.5)/1.5 ≈ 2.67
	// (MixRate 1 adopts the buffer mean).
	got := float64(s.Global().Data[0])
	if got < 2.6 || got > 2.7 {
		t.Fatalf("global = %v, want ≈2.67 (staleness-damped)", got)
	}
}

// Updates arriving during the cold start park in shm-backed pending and
// fold once the sandbox binds — none are lost.
func TestAsyncColdStartParksUpdates(t *testing.T) {
	eng, s := newAsyncRig(t, 1, AsyncParams{BufferK: 2})
	// Zero training delay: uploads race the sandbox cold start.
	dispatchConst(s, 0, 1, 1, 0, nil)
	dispatchConst(s, 0, 3, 1, 0, nil)
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if s.Version() != 1 {
		t.Fatalf("version = %d; cold-start updates lost", s.Version())
	}
	if s.Folded != 2 {
		t.Fatalf("folded = %d", s.Folded)
	}
}

package aggcore

import (
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/fedavg"
	"repro/internal/sim"
	"repro/internal/tensor"
)

type captureTransport struct {
	out   *Update
	at    sim.Duration
	eng   *sim.Engine
	count int
}

func (c *captureTransport) SendResult(_ *Aggregator, out Update, _ string) {
	o := out
	c.out = &o
	c.at = c.eng.Now()
	c.count++
}

func rig() (*sim.Engine, *cluster.Node) {
	eng := sim.NewEngine()
	c := cluster.New(eng, sim.NewRNG(1), costmodel.Default(), 1)
	return eng, c.Nodes[0]
}

func mkUpdate(v float32, w float64) Update {
	u := tensor.FromSlice([]float32{v, v * 2})
	return Update{Tensor: u, Weight: w, Size: 1 << 20, Round: 1}
}

func TestEagerAggregatesToGoalAndSends(t *testing.T) {
	eng, n := rig()
	a := New("leaf", RoleLeaf, n, fedavg.FedAvg{}, tensor.NewPool(2, 2))
	ct := &captureTransport{eng: eng}
	a.Transport = ct
	a.Mode = Eager
	a.Assign(RoleLeaf, 3, "top", 1)
	a.Receive(mkUpdate(1, 1))
	a.Receive(mkUpdate(2, 1))
	a.Receive(mkUpdate(6, 2))
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if ct.count != 1 || ct.out == nil {
		t.Fatalf("sends = %d", ct.count)
	}
	// (1 + 2 + 6·2)/4 = 3.75
	if got := ct.out.Tensor.Data[0]; got < 3.74 || got > 3.76 {
		t.Fatalf("aggregate = %v", got)
	}
	if ct.out.Weight != 4 {
		t.Fatalf("total weight = %v", ct.out.Weight)
	}
	if !a.Idle() {
		t.Fatal("aggregator should be idle after send")
	}
	if a.Done() != 3 || a.TotalAggregated != 3 || a.RoundsCompleted != 1 {
		t.Fatalf("counters: %d/%d/%d", a.Done(), a.TotalAggregated, a.RoundsCompleted)
	}
}

// Fig. 1: eager and lazy produce the same result, but lazy starts
// aggregating only when the whole goal has arrived, so it finishes later
// when arrivals are spread out.
func TestEagerFinishesBeforeLazyOnSpreadArrivals(t *testing.T) {
	run := func(mode Mode) (sim.Duration, *tensor.Tensor) {
		eng, n := rig()
		a := New("leaf", RoleLeaf, n, fedavg.FedAvg{}, tensor.NewPool(2, 2))
		ct := &captureTransport{eng: eng}
		a.Transport = ct
		a.Mode = mode
		a.Assign(RoleLeaf, 4, "top", 1)
		for i := 0; i < 4; i++ {
			i := i
			eng.At(sim.Duration(i)*10*sim.Second, func() {
				a.Receive(Update{Tensor: tensor.FromSlice([]float32{float32(i), 0}), Weight: 1, Size: 500 << 20, Round: 1})
			})
		}
		if err := eng.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		if ct.out == nil {
			t.Fatal("no send")
		}
		return ct.at, ct.out.Tensor
	}
	eagerAt, eagerRes := run(Eager)
	lazyAt, lazyRes := run(Lazy)
	if d, _ := eagerRes.MaxAbsDiff(lazyRes); d > 1e-5 {
		t.Fatalf("eager and lazy disagree by %v", d)
	}
	if eagerAt >= lazyAt {
		t.Fatalf("eager (%v) should finish before lazy (%v) on spread arrivals", eagerAt, lazyAt)
	}
	// Eager overlaps Recv with Agg: only the last update's work remains
	// after the final arrival (§5.4).
	lastArrival := 30 * sim.Second
	p := costmodel.Default()
	oneAgg := p.AggregateOne(500 << 20)
	if eagerAt > lastArrival+oneAgg+sim.Second {
		t.Fatalf("eager tail too long: %v", eagerAt-lastArrival)
	}
	if lazyAt < lastArrival+4*oneAgg {
		t.Fatalf("lazy must pay the whole batch after the last arrival, finished %v", lazyAt)
	}
}

func TestLazyDoesNotStartEarly(t *testing.T) {
	eng, n := rig()
	a := New("leaf", RoleLeaf, n, fedavg.FedAvg{}, tensor.NewPool(2, 2))
	a.Transport = &captureTransport{eng: eng}
	a.Mode = Lazy
	a.Assign(RoleLeaf, 2, "top", 1)
	a.Receive(mkUpdate(1, 1))
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if a.Done() != 0 || a.Pending() != 1 {
		t.Fatalf("lazy aggregated early: done=%d pending=%d", a.Done(), a.Pending())
	}
}

func TestShmReferencesReleasedAfterAggregation(t *testing.T) {
	eng, n := rig()
	a := New("leaf", RoleLeaf, n, fedavg.FedAvg{}, tensor.NewPool(2, 2))
	a.Transport = &captureTransport{eng: eng}
	a.Mode = Eager
	a.Assign(RoleLeaf, 2, "top", 1)
	for i := 0; i < 2; i++ {
		u := tensor.FromSlice([]float32{1, 2})
		key, err := n.Shm.Put(u, 1, "c", 1)
		if err != nil {
			t.Fatal(err)
		}
		a.Receive(Update{Tensor: u, Weight: 1, Size: u.VirtualBytes(), Key: key, Store: n.Shm})
	}
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if n.Shm.Len() != 0 {
		t.Fatalf("%d shm objects leaked", n.Shm.Len())
	}
}

func TestRoleConversion(t *testing.T) {
	eng, n := rig()
	a := New("x", RoleLeaf, n, fedavg.FedAvg{}, tensor.NewPool(2, 2))
	ct := &captureTransport{eng: eng}
	a.Transport = ct
	a.Mode = Eager
	a.Assign(RoleLeaf, 1, "mid", 1)
	a.Receive(mkUpdate(1, 1))
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !a.Idle() {
		t.Fatal("not idle after first task")
	}
	// Convert the idle leaf into a middle (§5.3) and run a second task.
	converted := false
	start := eng.Now()
	a.ConvertRole(RoleMiddle, 2, "top", 2, func() { converted = true })
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !converted || a.Role != RoleMiddle || a.Goal != 2 || a.Round != 2 {
		t.Fatalf("conversion state: %v role=%v goal=%d", converted, a.Role, a.Goal)
	}
	if eng.Now()-start != n.P.RoleConvertDelay {
		t.Fatalf("conversion took %v", eng.Now()-start)
	}
	a.Receive(mkUpdate(2, 1))
	a.Receive(mkUpdate(4, 1))
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if ct.count != 2 {
		t.Fatalf("sends = %d", ct.count)
	}
	if got := ct.out.Tensor.Data[0]; got != 3 {
		t.Fatalf("converted-state aggregate = %v (stale state?)", got)
	}
}

func TestOnCompleteBypassesTransport(t *testing.T) {
	eng, n := rig()
	a := New("top", RoleTop, n, fedavg.FedAvg{}, tensor.NewPool(2, 2))
	var got *Update
	a.OnComplete = func(_ *Aggregator, out Update) { got = &out }
	a.Mode = Eager
	a.Assign(RoleTop, 1, "", 1)
	a.Receive(mkUpdate(5, 2))
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Weight != 2 {
		t.Fatalf("OnComplete: %+v", got)
	}
}

func TestAssignNonPositiveGoalPanics(t *testing.T) {
	_, n := rig()
	a := New("x", RoleLeaf, n, fedavg.FedAvg{}, tensor.NewPool(2, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Assign(RoleLeaf, 0, "", 1)
}

func TestRoleStrings(t *testing.T) {
	if RoleLeaf.String() != "leaf" || RoleMiddle.String() != "middle" || RoleTop.String() != "top" {
		t.Fatal("role strings")
	}
}

// Property: for any weights and arrival order, the aggregator's output is
// the exact weighted mean of what it received.
func TestAggregationCorrectnessProperty(t *testing.T) {
	f := func(vals []int8, wsRaw []uint8) bool {
		n := len(vals)
		if n == 0 || n > 12 || len(wsRaw) < n {
			return true // skip degenerate shapes
		}
		eng, node := rig()
		a := New("leaf", RoleLeaf, node, fedavg.FedAvg{}, tensor.NewPool(1, 1))
		ct := &captureTransport{eng: eng}
		a.Transport = ct
		a.Mode = Eager
		a.Assign(RoleLeaf, n, "top", 1)
		var num, den float64
		for i := 0; i < n; i++ {
			v := float64(vals[i])
			w := float64(wsRaw[i]%13) + 1
			num += v * w
			den += w
			a.Receive(Update{Tensor: tensor.FromSlice([]float32{float32(v)}), Weight: w, Size: 1000})
		}
		if err := eng.RunUntilIdle(); err != nil {
			return false
		}
		if ct.out == nil {
			return false
		}
		got := float64(ct.out.Tensor.Data[0])
		want := num / den
		return got > want-1e-3 && got < want+1e-3 && ct.out.Weight == den
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Reweigh recomputes weights at the Agg-step dequeue (fold time). The
// buffered-async system hangs staleness decay here: the folded aggregate
// must use the reweighed values while the stored updates keep their
// original weights for failover replay.
func TestReweighAppliesAtFoldTime(t *testing.T) {
	eng, n := rig()
	a := New("buf", RoleTop, n, fedavg.FedAvg{}, tensor.NewPool(2, 2))
	ct := &captureTransport{eng: eng}
	a.Transport = ct
	a.Mode = Eager
	// Halve every weight: the mean is unchanged, the total weight halves.
	a.Reweigh = func(u Update) float64 { return u.Weight / 2 }
	a.Assign(RoleTop, 2, "up", 1)
	a.Receive(mkUpdate(2, 1))
	a.Receive(mkUpdate(4, 3))
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if ct.count != 1 {
		t.Fatalf("sends = %d", ct.count)
	}
	// (2·0.5 + 4·1.5)/2 = 3.5, total weight 0.5 + 1.5 = 2.
	if got := ct.out.Tensor.Data[0]; got < 3.49 || got > 3.51 {
		t.Fatalf("aggregate = %v", got)
	}
	if ct.out.Weight != 2 {
		t.Fatalf("total weight = %v, want reweighed 2", ct.out.Weight)
	}
}

// A reweigh verdict of <= 0 discards the update without advancing the goal:
// the buffer only fills with live contributions.
func TestReweighDiscardsWithoutAdvancingGoal(t *testing.T) {
	eng, n := rig()
	a := New("buf", RoleTop, n, fedavg.FedAvg{}, tensor.NewPool(2, 2))
	ct := &captureTransport{eng: eng}
	a.Transport = ct
	a.Mode = Eager
	a.Reweigh = func(u Update) float64 {
		if u.Round == 0 { // "too stale"
			return 0
		}
		return u.Weight
	}
	a.Assign(RoleTop, 2, "up", 1)
	stale := mkUpdate(100, 5)
	stale.Round = 0
	a.Receive(stale)
	a.Receive(mkUpdate(1, 1))
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if ct.count != 0 {
		t.Fatal("goal met with a discarded update")
	}
	if a.Discarded != 1 || a.Done() != 1 {
		t.Fatalf("discarded = %d, done = %d", a.Discarded, a.Done())
	}
	a.Receive(mkUpdate(3, 1))
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if ct.count != 1 {
		t.Fatal("goal did not complete after live updates")
	}
	// The discarded value-100 update must not have leaked in: (1 + 3)/2 = 2.
	if got := ct.out.Tensor.Data[0]; got != 2 {
		t.Fatalf("aggregate = %v, want 2", got)
	}
}

// A discarded shm-resident update must release its reference; a folded one
// still releases at Send — either way the store drains to empty.
func TestReweighDiscardReleasesShmReference(t *testing.T) {
	eng, n := rig()
	a := New("buf", RoleTop, n, fedavg.FedAvg{}, tensor.NewPool(2, 2))
	ct := &captureTransport{eng: eng}
	a.Transport = ct
	a.Mode = Eager
	a.Reweigh = func(u Update) float64 {
		if u.Producer == "stale" {
			return 0
		}
		return u.Weight
	}
	a.Assign(RoleTop, 2, "up", 1)
	recv := func(producer string, v float32) {
		u := tensor.FromSlice([]float32{v, v})
		key, err := n.Shm.Put(u, 1, producer, 1)
		if err != nil {
			t.Fatal(err)
		}
		obj, err := n.Shm.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		a.Receive(Update{Tensor: obj.Tensor, Weight: obj.Weight, Size: obj.Size,
			Round: 1, Producer: producer, Key: key, Store: n.Shm})
	}
	recv("stale", 9)
	recv("live", 1)
	recv("live", 3)
	if err := eng.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if ct.count != 1 {
		t.Fatalf("sends = %d", ct.count)
	}
	if a.Discarded != 1 {
		t.Fatalf("discarded = %d", a.Discarded)
	}
	if n.Shm.Len() != 0 {
		t.Fatalf("shm holds %d objects after send; discarded reference leaked", n.Shm.Len())
	}
}

// A warm Assign→fold→send cycle recycles every tensor-sized buffer through
// the pool: the fedavg state's running sums (acquired in Assign, returned
// in send), the consumed pooled updates (returned in send) and the
// aggregate (returned by its consumer). Only small control records remain.
func TestWarmCycleAllocatesNoTensorMemory(t *testing.T) {
	const phys = 1 << 14
	eng, n := rig()
	pool := tensor.NewPool(phys, phys)
	a := New("leaf", RoleLeaf, n, fedavg.FedAvg{}, pool)
	a.Mode = Eager
	sends := 0
	a.OnComplete = func(_ *Aggregator, out Update) {
		sends++
		pool.Put(out.Tensor)
	}
	cycle := func() {
		a.Assign(RoleLeaf, 2, "", 1)
		for k := 0; k < 2; k++ {
			u := pool.Get()
			u.Fill(float32(k + 1))
			a.Receive(Update{Tensor: u, Weight: 1, Size: u.VirtualBytes(), Round: 1})
		}
		if err := eng.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	const cycles = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if sends != 3+cycles {
		t.Fatalf("sends = %d, want %d", sends, 3+cycles)
	}
	perCycle := (after.TotalAlloc - before.TotalAlloc) / cycles
	if tensorBytes := uint64(phys * 4); perCycle >= tensorBytes/4 {
		t.Fatalf("a warm cycle allocates %d bytes, want well under one %d-byte tensor", perCycle, tensorBytes)
	}
	// After send the aggregator holds no state; failover must not touch it.
	if got := a.FailoverUpdates(); len(got) != 0 {
		t.Fatalf("failover after send returned %d updates", len(got))
	}
}

package flwork

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/tensor"
)

func pop(class ClientClass, n int) *Population {
	eng := sim.NewEngine()
	m := model.ResNet18
	if class == Server {
		m = model.ResNet152
	}
	return NewPopulation(eng, Config{NumClients: n, Model: m, Class: class, Seed: 5})
}

func TestPopulationDeterministic(t *testing.T) {
	a, b := pop(Mobile, 100), pop(Mobile, 100)
	for i := 0; i < a.Len(); i++ {
		if a.Client(i).Samples() != b.Client(i).Samples() || a.Client(i).Speed() != b.Client(i).Speed() {
			t.Fatal("same seed diverged")
		}
	}
}

// eagerClient is a client as the eager synthesis stored it: every
// transform applied up front.
type eagerClient struct {
	samples          int
	speed, labelSkew float64
}

// eagerPopulation is the eager synthesis the derived-on-access storage
// replaced, kept as the reference: one loop over the clients, drawing in
// the legacy order and transforming at once.
func eagerPopulation(n int, seed int64) []eagerClient {
	rng := sim.NewRNG(seed)
	out := make([]eagerClient, n)
	for i := range out {
		samples := 30 + int(120*math.Pow(rng.Float64(), -0.45)) // power law tail
		if samples > 2_000 {
			samples = 2_000
		}
		out[i] = eagerClient{
			samples:   samples,
			speed:     1.0 * math.Exp(0.12*rng.NormFloat64()),
			labelSkew: rng.Float64(),
		}
	}
	return out
}

// TestPopulationMatchesEagerReference pins derived-on-access synthesis
// bit for bit to the eager one, for both classes and several seeds, over
// a population spanning several storage chunks.
func TestPopulationMatchesEagerReference(t *testing.T) {
	n := 3*clientChunkSize + 117
	if testing.Short() {
		n = clientChunkSize - 3
	}
	for _, class := range []ClientClass{Mobile, Server} {
		for _, seed := range []int64{1, 5, 7919} {
			ref := eagerPopulation(n, seed)
			p := NewPopulation(sim.NewEngine(), Config{NumClients: n, Model: model.ResNet18, Class: class, Seed: seed})
			if p.Len() != n {
				t.Fatalf("Len = %d, want %d", p.Len(), n)
			}
			for i, want := range ref {
				c := p.Client(i)
				if c.Samples() != want.samples ||
					math.Float64bits(c.Speed()) != math.Float64bits(want.speed) ||
					math.Float64bits(c.LabelSkew) != math.Float64bits(want.labelSkew) {
					t.Fatalf("class %d seed %d client %d: (%d, %v, %v), eager (%d, %v, %v)",
						class, seed, i, c.Samples(), c.Speed(), c.LabelSkew, want.samples, want.speed, want.labelSkew)
				}
			}
		}
	}
}

// TestClientSize pins the resident cost per client: three float64 draws.
func TestClientSize(t *testing.T) {
	if got := unsafe.Sizeof(Client{}); got != 24 {
		t.Fatalf("Client is %d B, want 24", got)
	}
}

// TestZeroSampleDrawTakesCap pins the u = 0 draw (math/rand's Float64 is
// Int63()/2⁶³, so 0 has probability 2⁻⁶³ per client): math.Pow(0, -0.45)
// is +Inf, whose int conversion is platform-defined (a huge negative
// FedAvg weight on amd64), so Samples returns the cap instead.
func TestZeroSampleDrawTakesCap(t *testing.T) {
	c := Client{u: 0}
	if got := c.Samples(); got != 2_000 {
		t.Fatalf("Samples() with u = 0 is %d, want the 2000 cap", got)
	}
	if got := (&Client{u: math.SmallestNonzeroFloat64}).Samples(); got != 2_000 {
		t.Fatalf("Samples() with the smallest positive u is %d, want the 2000 cap", got)
	}
	if got := (&Client{u: 1 - 0x1p-53}).Samples(); got != 150 {
		t.Fatalf("Samples() with u just below 1 is %d, want 150", got)
	}
}

func TestClientIDFormat(t *testing.T) {
	p := pop(Mobile, 10)
	for i, want := range map[int]string{
		0:      "client-0000",
		7:      "client-0007",
		9:      "client-0009",
		999:    "client-0999",
		9999:   "client-9999",
		10000:  "client-10000",
		123456: "client-123456",
	} {
		if got := p.ClientID(i); got != want {
			t.Fatalf("ClientID(%d) = %q, want %q", i, got, want)
		}
	}
	// Byte-identical to the fmt definition over client indices.
	for _, i := range []int{1, 10, 99, 100, 255, 256, 1000, 4096, 99999, math.MaxInt} {
		if got, want := p.ClientID(i), fmt.Sprintf("client-%04d", i); got != want {
			t.Fatalf("ClientID(%d) = %q, want %q", i, got, want)
		}
	}
	// The result string is the only allocation, also past the small
	// integers fmt could box without allocating.
	if n := testing.AllocsPerRun(100, func() { _ = p.ClientID(123456) }); n > 1 {
		t.Fatalf("ClientID allocates %v times per call, want 1", n)
	}
}

func TestSampleCountsHeavyTailed(t *testing.T) {
	p := pop(Mobile, 2800)
	lo, hi := 1<<30, 0
	for i := 0; i < p.Len(); i++ {
		c := p.Client(i)
		n := c.Samples()
		if n <= 0 {
			t.Fatalf("client %d has %d samples", i, n)
		}
		lo, hi = min(lo, n), max(hi, n)
	}
	if hi < 4*lo {
		t.Fatalf("no tail: min %d max %d", lo, hi)
	}
	if hi > 2000 {
		t.Fatalf("tail uncapped: %d", hi)
	}
}

func TestTrainTimesPositiveAndHeterogeneous(t *testing.T) {
	p := pop(Mobile, 200)
	seen := make(map[sim.Duration]bool)
	for i := 0; i < 50; i++ {
		d := p.TrainTime(p.Client(i))
		if d <= 0 {
			t.Fatalf("train time %v", d)
		}
		seen[d] = true
	}
	if len(seen) < 25 {
		t.Fatalf("train times too uniform: %d distinct of 50", len(seen))
	}
}

func TestHibernationOnlyForMobiles(t *testing.T) {
	mp := pop(Mobile, 10)
	sp := pop(Server, 10)
	anyPositive := false
	for i := 0; i < 100; i++ {
		if mp.Hibernation(mp.Client(0)) > 0 {
			anyPositive = true
		}
		if d := sp.Hibernation(sp.Client(0)); d != 0 {
			t.Fatalf("server client hibernated %v", d)
		}
	}
	if !anyPositive {
		t.Fatal("mobile hibernation never positive")
	}
	// Bounded by [0, 60s] per §6.2.
	for i := 0; i < 1000; i++ {
		if d := mp.Hibernation(mp.Client(0)); d >= 60*sim.Second {
			t.Fatalf("hibernation %v out of [0,60s)", d)
		}
	}
}

func TestLocalUpdatePerturbationDecays(t *testing.T) {
	p := pop(Mobile, 5)
	g := model.ResNet18.NewTensor()
	early := p.LocalUpdate(p.Client(0), g, 1)
	late := p.LocalUpdate(p.Client(0), g, 100)
	if err := early.Sub(g); err != nil {
		t.Fatal(err)
	}
	if err := late.Sub(g); err != nil {
		t.Fatal(err)
	}
	if late.Norm2() >= early.Norm2() {
		t.Fatalf("perturbation did not decay: %v vs %v", late.Norm2(), early.Norm2())
	}
}

func TestLocalUpdateClientSpecific(t *testing.T) {
	p := pop(Mobile, 5)
	g := model.ResNet18.NewTensor()
	a := p.LocalUpdate(p.Client(0), g, 1)
	b := p.LocalUpdate(p.Client(1), g, 1)
	d, err := a.MaxAbsDiff(b)
	if err != nil {
		t.Fatal(err)
	}
	if d == 0 {
		t.Fatal("different clients produced identical updates")
	}
}

// TestLocalUpdateIntoMatchesLocalUpdate pins the arena-backed form to the
// allocating one bit for bit.
func TestLocalUpdateIntoMatchesLocalUpdate(t *testing.T) {
	p := pop(Mobile, 5)
	g := model.ResNet18.NewTensor()
	for i := range g.Data {
		g.Data[i] = float32(i%13) * 0.03
	}
	want := p.LocalUpdate(p.Client(2), g, 7)
	got := model.ResNet18.NewTensor()
	got.Fill(99) // stale contents must be fully overwritten
	p.LocalUpdateInto(got, p.Client(2), g, 7)
	if got.VirtualLen != want.VirtualLen {
		t.Fatalf("virtual len %d vs %d", got.VirtualLen, want.VirtualLen)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("element %d differs", i)
		}
	}
}

func TestCurveCalibration(t *testing.T) {
	// The paper's workloads: ResNet-18 hits 70% near round 80 (0.9 h at
	// ≈40 s rounds), ResNet-152 near round 152 (1.9 h at ≈45 s).
	r18 := CurveFor(model.ResNet18).RoundsToAccuracy(0.70)
	if r18 < 70 || r18 > 90 {
		t.Fatalf("ResNet-18 rounds to 70%% = %d, want ≈80", r18)
	}
	r152 := CurveFor(model.ResNet152).RoundsToAccuracy(0.70)
	if r152 < 135 || r152 > 170 {
		t.Fatalf("ResNet-152 rounds to 70%% = %d, want ≈152", r152)
	}
}

func TestCurveSaturatesBelowAmax(t *testing.T) {
	c := CurveFor(model.ResNet34)
	if c.RoundsToAccuracy(c.Amax+0.05) != -1 {
		t.Fatal("curve exceeded its asymptote")
	}
	if c.At(0) > 0.1 {
		t.Fatalf("initial accuracy %v", c.At(0))
	}
}

// Property: accuracy is within (0,1) and the 0.70 crossing is unique-ish
// (once crossed with margin, it stays crossed).
func TestCurveCrossingStable(t *testing.T) {
	f := func(tauRaw uint8) bool {
		c := Curve{Amax: 0.8, Tau: float64(tauRaw%100) + 5}
		crossed := false
		for r := 1; r < 2000; r++ {
			a := c.At(r)
			if a <= 0 || a >= 1 {
				return false
			}
			if a >= 0.75 {
				crossed = true
			}
			if crossed && a < 0.70 {
				return false // fell back below after a clear crossing
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// perturbReference is the perturbation's definition, the loop perturb ran
// before its table-driven fast path: perturb must match it bit for bit.
func perturbReference(data []float32, c *Client, round int) {
	mag := 0.5 / math.Sqrt(float64(round)+1)
	phase := c.LabelSkew * 2 * math.Pi
	for i := range data {
		g := math.Sin(float64(i)*0.01+phase) * mag
		data[i] += float32(g)
	}
}

// checkPerturbExact runs perturb and the reference on copies of base and
// reports the first element whose bits differ.
func checkPerturbExact(t *testing.T, p *Population, base []float32, skew float64, round int) {
	t.Helper()
	c := &Client{LabelSkew: skew}
	got := &tensor.Tensor{Data: append([]float32(nil), base...)}
	want := append([]float32(nil), base...)
	p.perturb(got, c, round)
	perturbReference(want, c, round)
	for i := range want {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s len %d skew %v round %d: element %d = %v (%#x), reference %v (%#x)",
				p.Model.Name, len(base), skew, round, i, got.Data[i], math.Float32bits(got.Data[i]),
				want[i], math.Float32bits(want[i]))
		}
	}
}

// perturbBase is a starting vector with mixed signs, exact zeros and
// negative zeros, so the additions are exercised beyond a zero global.
func perturbBase(n int, rng *rand.Rand) []float32 {
	base := make([]float32, n)
	for i := range base {
		switch i % 5 {
		case 0:
			base[i] = float32(math.Copysign(0, -1))
		case 1:
			base[i] = 0
		default:
			base[i] = float32(rng.NormFloat64())
		}
	}
	return base
}

// TestPerturbMatchesReference pins the fast path to the Sin definition bit
// for bit over every model the registry uses, a full-fidelity (PhysScale 1)
// vector, thousands of client phases and rounds 0–400 — so goldens, .traj
// files and benchmark fingerprints stay unchanged.
func TestPerturbMatchesReference(t *testing.T) {
	phases := 2048
	if testing.Short() {
		phases = 256
	}
	full := model.Spec{Name: "full-fidelity", Params: 1 << 20, PhysScale: 1}
	specs := append(append([]model.Spec(nil), model.All...), model.TinyFL, full)
	for _, m := range specs {
		t.Run(m.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(m.PhysLen())))
			p := NewPopulation(sim.NewEngine(), Config{NumClients: 1, Model: m, Class: Mobile, Seed: 3})
			base := perturbBase(m.PhysLen(), rng)
			n := phases
			if m.PhysLen() > 100_000 {
				n = phases / 64 // ~1M elements per phase
			}
			// Phase 0 and the phase just below 2π, at the rounds' ends.
			for _, round := range []int{0, 1, 400} {
				checkPerturbExact(t, p, base, 0, round)
				checkPerturbExact(t, p, base, math.Nextafter(1, 0), round)
			}
			for k := 0; k < n; k++ {
				checkPerturbExact(t, p, base, rng.Float64(), rng.Intn(401))
			}
		})
	}
}

// TestPerturbFallbackLength covers the exact fallback for tensors whose
// length is not the model's PhysLen, and pins that the definition there is
// the reference loop's.
func TestPerturbFallbackLength(t *testing.T) {
	p := pop(Mobile, 1)
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, model.ResNet18.PhysLen() - 1, model.ResNet18.PhysLen() + 7} {
		base := perturbBase(n, rng)
		for k := 0; k < 64; k++ {
			checkPerturbExact(t, p, base, rng.Float64(), rng.Intn(401))
		}
		// The fallback evaluates perturbTerm, which must be the reference's
		// expression element by element.
		skew, round := rng.Float64(), rng.Intn(401)
		want := make([]float32, n)
		perturbReference(want, &Client{LabelSkew: skew}, round)
		mag := 0.5 / math.Sqrt(float64(round)+1)
		for i := range want {
			if got := perturbTerm(i, skew*2*math.Pi, mag); math.Float32bits(got) != math.Float32bits(want[i]) {
				t.Fatalf("len %d: perturbTerm(%d) = %v, reference %v", n, i, got, want[i])
			}
		}
	}
}

// TestPerturbConcurrentFirstUse pins the lazy tables under the staged
// round loop's use: several goroutines materialize updates from one fresh
// population at once, and each result still matches the reference.
func TestPerturbConcurrentFirstUse(t *testing.T) {
	p := pop(Mobile, 8)
	g := model.ResNet18.NewTensor()
	var wg sync.WaitGroup
	got := make([]*tensor.Tensor, p.Len())
	for k := range got {
		got[k] = model.ResNet18.NewTensor()
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			p.LocalUpdateInto(got[k], p.Client(k), g, 3)
		}(k)
	}
	wg.Wait()
	for k, u := range got {
		want := make([]float32, len(g.Data))
		perturbReference(want, p.Client(k), 3)
		for i := range want {
			if math.Float32bits(u.Data[i]) != math.Float32bits(want[i]) {
				t.Fatalf("client %d element %d = %v, reference %v", k, i, u.Data[i], want[i])
			}
		}
	}
}

// FuzzPerturbExact checks the fast path against the reference for arbitrary
// client phases, rounds and model lengths.
func FuzzPerturbExact(f *testing.F) {
	f.Add(0.0, uint16(1), uint16(2816))                   // phase 0
	f.Add(math.Nextafter(1, 0), uint16(79), uint16(2816)) // phase just below 2π
	f.Add(0.37, uint16(0), uint16(64))                    // round 0
	f.Add(0.5, uint16(3), uint16(1))                      // length 1
	f.Fuzz(func(t *testing.T, labelSkew float64, round uint16, length uint16) {
		m := model.Spec{Name: "fuzz", Params: int(length), PhysScale: 1}
		p := NewPopulation(sim.NewEngine(), Config{NumClients: 1, Model: m, Class: Mobile, Seed: 1})
		base := perturbBase(int(length), rand.New(rand.NewSource(int64(round))))
		checkPerturbExact(t, p, base, labelSkew, int(round))
	})
}

// BenchmarkLocalUpdateInto times one client update per model size; the
// ns/kelem metric is the per-layer figure flbench reports as
// flwork.update_ns_per_kelem.
func BenchmarkLocalUpdateInto(b *testing.B) {
	for _, m := range []model.Spec{model.TinyFL, model.ResNet18, model.ResNet152} {
		b.Run(m.Name, func(b *testing.B) {
			p := NewPopulation(sim.NewEngine(), Config{NumClients: 64, Model: m, Class: Mobile, Seed: 1})
			global, dst := m.NewTensor(), m.NewTensor()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.LocalUpdateInto(dst, p.Client(i%p.Len()), global, 1+i%100)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(float64(dst.Len())/1e3), "ns/kelem")
		})
	}
}

var popSink *Population

// BenchmarkNewPopulation times synthesis of 1M mobile clients — the
// per-layer figure flbench reports as flwork.population_s, scaled down.
func BenchmarkNewPopulation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		popSink = NewPopulation(sim.NewEngine(), Config{NumClients: 1_000_000, Model: model.ResNet18, Class: Mobile, Seed: 1})
	}
}

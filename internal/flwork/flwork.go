package flwork

import (
	"math"
	"strconv"
	"sync"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// ClientClass is the client archetype of §6.2.
type ClientClass int

// Client archetypes.
const (
	// Mobile clients share a physical host 8-ways, hibernate between
	// rounds, and train slowly (ResNet-18 setup).
	Mobile ClientClass = iota
	// Server clients own a machine and are always available (ResNet-152).
	Server
)

// Client is one member of the training population — value storage only
// (24 bytes): the archetype lives on the Population (one class per
// population) and the ID string is derived on demand (Population.ClientID),
// so a 10M-client population costs 10M × 24 B of live heap instead of 10M
// pointers, structs and ID strings.
//
// A client holds its three raw RNG draws; Samples and Speed derive the
// FedAvg weight and compute multiplier from them on access, so synthesis
// pays for no transform whose result is never read.
type Client struct {
	u float64 // uniform draw behind Samples
	z float64 // standard-normal draw behind Speed
	// LabelSkew in [0,1] parameterizes this client's data direction; used
	// to derive deterministic per-client update perturbations.
	LabelSkew float64
}

// Samples returns c_k, the client's FedAvg weight: a power-law sample
// count (most clients small, a heavy tail) capped at 2,000.
func (c *Client) Samples() int {
	x := 120 * math.Pow(c.u, -0.45) // power law tail
	if x >= 2_000 {
		// Past the cap. This also keeps x = +Inf (a zero draw) from the
		// int conversion, whose result out of range is platform-defined.
		return 2_000
	}
	samples := 30 + int(x)
	if samples > 2_000 {
		samples = 2_000
	}
	return samples
}

// Speed returns the client's compute multiplier (heterogeneity):
// LogNormal(median 1, sigma 0.12) = 1.0·e^(0.12·N).
func (c *Client) Speed() float64 {
	return 1.0 * math.Exp(0.12*c.z)
}

// Chunk geometry for the population's client storage: 1<<16 clients
// (1.5 MiB) per chunk. Chunked value slices keep the peak live heap flat —
// no append-doubling over a single 10M-element array, no per-client
// pointer or string allocations for the GC to trace.
const (
	clientChunkShift = 16
	clientChunkSize  = 1 << clientChunkShift
	clientChunkMask  = clientChunkSize - 1
)

// Population is the full client set plus workload parameters.
type Population struct {
	Model model.Spec
	Class ClientClass
	rng   *sim.RNG

	// chunks is the value-backed client storage; see Client and the chunk
	// geometry above. Index i lives at chunks[i>>shift][i&mask].
	chunks [][]Client
	n      int

	// HibernateMax bounds the mobile hibernation interval ([0,60] s).
	HibernateMax sim.Duration
	// BaseTrainTime is the median local-epoch duration on a dedicated host.
	BaseTrainTime sim.Duration
	// ShareFactor divides compute for mobile clients packed 8-per-host.
	ShareFactor float64

	// sinA and cosA tabulate sin and cos of a_i = i·0.01 over the model's
	// physical length for perturb's fast path. Built on first use (tabOnce),
	// so synthesis never pays for them.
	tabOnce    sync.Once
	sinA, cosA []float64
}

// Config creates a population.
type Config struct {
	NumClients int
	Model      model.Spec
	Class      ClientClass
	Seed       int64
	// Deprecated: ignored. Synthesis is a serial pass of RNG draws.
	Workers int
}

// NewPopulation synthesizes the client set: one serial pass that makes
// each client's draws in the legacy order (samples-uniform, speed-normal,
// skew-uniform — the normal draw's ziggurat consumes a variable number of
// underlying values, so the stream cannot be split) and stores them raw.
// Sample counts (a FedScale-style power law for FEMNIST) and log-normal
// speeds derive on access from the stored draws (Client.Samples,
// Client.Speed) by the same expressions, so the population is
// bit-identical to one transformed eagerly.
func NewPopulation(eng *sim.Engine, cfg Config) *Population {
	rng := sim.NewRNG(cfg.Seed)
	p := &Population{
		Model:        cfg.Model,
		Class:        cfg.Class,
		rng:          rng,
		n:            cfg.NumClients,
		HibernateMax: 60 * sim.Second,
		ShareFactor:  8,
	}
	switch cfg.Class {
	case Mobile:
		// Local epoch (batch 32, lr 0.01) of ResNet-18 on a 1/8 share of a
		// host: tens of seconds.
		p.BaseTrainTime = 26 * sim.Second
	case Server:
		// ResNet-152 on a dedicated server node.
		p.BaseTrainTime = 22 * sim.Second
	}
	if cfg.NumClients <= 0 {
		return p
	}
	nchunks := (cfg.NumClients + clientChunkSize - 1) / clientChunkSize
	p.chunks = make([][]Client, nchunks)
	for ci := range p.chunks {
		lo := ci << clientChunkShift
		size := cfg.NumClients - lo
		if size > clientChunkSize {
			size = clientChunkSize
		}
		chunk := make([]Client, size)
		for i := range chunk {
			c := &chunk[i]
			c.u = rng.Float64()
			c.z = rng.NormFloat64()
			c.LabelSkew = rng.Float64()
		}
		p.chunks[ci] = chunk
	}
	return p
}

// Len returns the population size.
func (p *Population) Len() int { return p.n }

// Client returns client i's record. The pointer stays valid for the
// population's lifetime (chunks never reallocate), but records are shared —
// callers must not mutate them.
func (p *Population) Client(i int) *Client {
	return &p.chunks[i>>clientChunkShift][i&clientChunkMask]
}

// ClientID derives client i's wire identity on demand ("client-0042") —
// the legacy per-client ID string, minus 10M resident Sprintf results.
// For a client index i ≥ 0 the bytes match fmt.Sprintf("client-%04d", i);
// built in a stack buffer, the result string is the only allocation.
func (p *Population) ClientID(i int) string {
	var buf [32]byte
	b := append(buf[:0], "client-"...)
	for lim := 1000; lim > 1 && i < lim; lim /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendInt(b, int64(i), 10))
}

// TrainTime returns how long client c needs for one local training pass.
func (p *Population) TrainTime(c *Client) sim.Duration {
	t := float64(p.BaseTrainTime) / c.Speed()
	if p.Class == Mobile {
		// The 8-way host share is already folded into BaseTrainTime for
		// mobiles; add the per-round contention jitter instead.
		t = float64(p.rng.Jitter(sim.Duration(t), 0.12))
	} else {
		t = float64(p.rng.Jitter(sim.Duration(t), 0.08))
	}
	return sim.Duration(t)
}

// Hibernation returns the random unavailability interval before the client
// can join a round (mobile only; servers return 0).
func (p *Population) Hibernation(c *Client) sim.Duration {
	if p.Class != Mobile {
		return 0
	}
	return p.rng.Uniform(p.HibernateMax)
}

// LocalUpdate produces client c's model update for the given round: the
// global model plus a deterministic, client-specific perturbation that
// shrinks as training converges. The returned tensor has the model's
// physical/virtual geometry, and the FedAvg weight is c.Samples().
func (p *Population) LocalUpdate(c *Client, global *tensor.Tensor, round int) *tensor.Tensor {
	u := global.Clone()
	p.perturb(u, c, round)
	return u
}

// LocalUpdateInto is LocalUpdate writing into a caller-owned buffer (sized
// to the model's physical length) instead of cloning — the arena-backed
// form core's staged round loop uses so per-round update materialization
// recycles one buffer set instead of allocating per client. Results are
// bit-identical to LocalUpdate.
func (p *Population) LocalUpdateInto(dst *tensor.Tensor, c *Client, global *tensor.Tensor, round int) {
	copy(dst.Data, global.Data)
	dst.VirtualLen = global.VirtualLen
	p.perturb(dst, c, round)
}

// perturb applies the deterministic client/round perturbation in place:
// u[i] += float32(math.Sin(float64(i)*0.01+phase) * mag), the definition
// perturbTerm evaluates. The result is bit-identical to that definition for
// every element; most elements take a table-driven fast path instead.
//
// Fast path. With a_i = i·0.01 tabulated as S_i = sin a_i, C_i = cos a_i,
// the angle-addition identity gives A = S_i·cos φ + C_i·sin φ ≈ sin(a_i+φ)
// for two multiplies and an add instead of a math.Sin call. A differs from
// the definition's math.Sin(x), x = fl(a_i + φ), by at most
//
//	|x − (a_i+φ)|         ≤ ulp(x_max)   the argument's rounding: ½ ulp of
//	                                     the add, plus ½ ulp of a_i should
//	                                     the compiler fuse i·0.01+φ (FMA)
//	table, cos φ, sin φ,  ≲ 1.6e-15      each math.Sin/Cos within ~1 ulp of
//	the combine and the                  1 (Cephes: peak 2.1e-16), three
//	definition's math.Sin                roundings in A, |S|,|C| ≤ 1
//
// where x_max = n·0.01 + |φ| bounds |x| and sin is 1-Lipschitz. eps =
// 8·ulp(x_max) + 1e-14 covers both terms with at least a 6× margin (and the
// ½ ulp roundings of A±eps), so math.Sin(x) ∈ [A−eps, A+eps]. Both steps
// after it — y ↦ fl(y·mag) for mag > 0, then the float32 conversion — are
// monotone, so when the interval's two ends convert to the same float32,
// the definition converts to it too and the fast path is exact. Otherwise
// (a float32 rounding boundary lies within eps, a few elements per million
// at the default PhysScale) the element takes the definition itself. The
// ends are never both ±0, which compare equal but add differently to −0:
// that needs eps·mag below float32's smallest subnormal, while eps ≥ 1e-14
// and mag ≥ 1.6e-10 for any int round.
//
// eps grows with the vector length through ulp(x_max), so full-fidelity
// (PhysScale 1) vectors stay exact and merely fall back more often. Tensors
// whose length is not the model's PhysLen take the definition throughout.
func (p *Population) perturb(u *tensor.Tensor, c *Client, round int) {
	// Perturbation magnitude decays with rounds (local steps shrink as the
	// model converges); direction is client-specific via LabelSkew.
	mag := 0.5 / math.Sqrt(float64(round)+1)
	phase := c.LabelSkew * 2 * math.Pi
	data := u.Data
	sinA, cosA := p.tables()
	if len(data) != len(sinA) {
		for i := range data {
			data[i] += perturbTerm(i, phase, mag)
		}
		return
	}
	cosA = cosA[:len(sinA)]
	data = data[:len(sinA)]
	sinP, cosP := math.Sincos(phase)
	xmax := float64(len(data))*0.01 + math.Abs(phase)
	eps := 8*(math.Nextafter(xmax, math.Inf(1))-xmax) + 1e-14
	for i, s := range sinA {
		a := s*cosP + cosA[i]*sinP
		g := float32((a - eps) * mag)
		if g != float32((a+eps)*mag) {
			g = perturbTerm(i, phase, mag)
		}
		data[i] += g
	}
}

// perturbTerm is the perturbation's definition for element i: a
// deterministic pseudo-gradient, smooth in i, client-phase-shifted.
func perturbTerm(i int, phase, mag float64) float32 {
	g := math.Sin(float64(i)*0.01+phase) * mag
	return float32(g)
}

// tables returns the lazily built sin/cos tables of a_i = i·0.01 over the
// model's physical length (16 B per element: 45 KB for ResNet-18 at the
// default PhysScale).
func (p *Population) tables() (sinA, cosA []float64) {
	p.tabOnce.Do(func() {
		n := p.Model.PhysLen()
		p.sinA, p.cosA = make([]float64, n), make([]float64, n)
		for i := range p.sinA {
			p.sinA[i], p.cosA[i] = math.Sincos(float64(i) * 0.01)
		}
	})
	return p.sinA, p.cosA
}

// Curve is the accuracy-vs-round learning curve a(r) = Amax·(1 − e^{−r/Tau})
// with small deterministic ripple, calibrated per model.
type Curve struct {
	Amax float64
	Tau  float64
}

// CurveFor returns the calibrated curve for the paper's two workloads:
// ResNet-18 reaches 70% near round 80 (LIFL's 0.9 h at ≈40 s rounds,
// Fig. 9(a)); ResNet-152 reaches 70% near round 152 (1.9 h at ≈45 s rounds,
// Fig. 9(c)).
func CurveFor(m model.Spec) Curve {
	switch m.Name {
	case model.ResNet18.Name:
		return Curve{Amax: 0.78, Tau: 35}
	case model.ResNet34.Name:
		return Curve{Amax: 0.79, Tau: 50}
	default: // ResNet-152
		return Curve{Amax: 0.80, Tau: 73}
	}
}

// At returns accuracy after `round` completed rounds.
func (c Curve) At(round int) float64 {
	if round <= 0 {
		return 0.05 // random-ish initialization accuracy
	}
	a := c.Amax * (1 - math.Exp(-float64(round)/c.Tau))
	// Small deterministic ripple so curves look like measurements, without
	// breaking monotonic crossing detection at the 0.70 threshold.
	a += 0.004 * math.Sin(float64(round)*1.7)
	if a < 0.05 {
		a = 0.05
	}
	return a
}

// RoundsToAccuracy returns the first round at which the curve crosses the
// target, or -1 if unreachable.
func (c Curve) RoundsToAccuracy(target float64) int {
	for r := 1; r <= 100_000; r++ {
		if c.At(r) >= target {
			return r
		}
	}
	return -1
}

package tensor

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// ErrShape is returned when two tensors with different lengths are combined.
var ErrShape = errors.New("tensor: shape mismatch")

// Tensor is a flat float32 parameter vector. VirtualLen is the number of
// parameters the tensor represents; it is >= len(Data). When VirtualLen >
// len(Data) the tensor is a down-scaled stand-in whose arithmetic is still
// exact over Data.
type Tensor struct {
	Data       []float32
	VirtualLen int

	// pool tags a buffer handed out by a Pool; free marks it as returned.
	pool *Pool
	free bool
}

// New returns a zero tensor with physical length n (virtual length equal).
func New(n int) *Tensor {
	return &Tensor{Data: make([]float32, n), VirtualLen: n}
}

// NewVirtual returns a zero tensor with physical length phys representing
// virtualLen parameters.
func NewVirtual(phys, virtualLen int) *Tensor {
	if virtualLen < phys {
		virtualLen = phys
	}
	return &Tensor{Data: make([]float32, phys), VirtualLen: virtualLen}
}

// FromSlice wraps (copies) the given values.
func FromSlice(v []float32) *Tensor {
	d := make([]float32, len(v))
	copy(d, v)
	return &Tensor{Data: d, VirtualLen: len(v)}
}

// Len returns the physical element count.
func (t *Tensor) Len() int { return len(t.Data) }

// VirtualBytes returns the byte size the data plane charges for this tensor:
// 4 bytes per represented (virtual) parameter.
func (t *Tensor) VirtualBytes() uint64 { return uint64(t.VirtualLen) * 4 }

// PhysicalBytes returns the bytes actually resident in this process.
func (t *Tensor) PhysicalBytes() uint64 { return uint64(len(t.Data)) * 4 }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	d := make([]float32, len(t.Data))
	copy(d, t.Data)
	return &Tensor{Data: d, VirtualLen: t.VirtualLen}
}

// Zero sets every element to 0 in place.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v in place.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Scale multiplies every element by a in place.
func (t *Tensor) Scale(a float32) {
	for i := range t.Data {
		t.Data[i] *= a
	}
}

// Add accumulates o into t in place: t += o.
func (t *Tensor) Add(o *Tensor) error {
	if len(t.Data) != len(o.Data) {
		return fmt.Errorf("%w: %d vs %d", ErrShape, len(t.Data), len(o.Data))
	}
	for i, v := range o.Data {
		t.Data[i] += v
	}
	return nil
}

// AddScaled accumulates a*o into t in place: t += a*o. This is the inner
// loop of weighted FedAvg and of eager cumulative averaging.
func (t *Tensor) AddScaled(a float32, o *Tensor) error {
	if len(t.Data) != len(o.Data) {
		return fmt.Errorf("%w: %d vs %d", ErrShape, len(t.Data), len(o.Data))
	}
	for i, v := range o.Data {
		t.Data[i] += a * v
	}
	return nil
}

// ScaleAdd is the fused scale-and-add update t = a*t + b*o, computed in a
// single pass over both vectors — for callers that would otherwise pair
// Scale with AddScaled (two sweeps, or a Clone when o must be preserved).
// It carries the per-round model-install path of momentum server
// optimizers (fedavg.FedAvgM's velocity decay and server step; see
// BenchmarkFedAvgMApply) and completes the in-place arithmetic family
// alongside WeightedMeanInto and Accumulator.
func (t *Tensor) ScaleAdd(a, b float32, o *Tensor) error {
	if len(t.Data) != len(o.Data) {
		return fmt.Errorf("%w: %d vs %d", ErrShape, len(t.Data), len(o.Data))
	}
	for i, v := range o.Data {
		t.Data[i] = a*t.Data[i] + b*v
	}
	return nil
}

// Sub computes t -= o in place.
func (t *Tensor) Sub(o *Tensor) error {
	if len(t.Data) != len(o.Data) {
		return fmt.Errorf("%w: %d vs %d", ErrShape, len(t.Data), len(o.Data))
	}
	for i, v := range o.Data {
		t.Data[i] -= v
	}
	return nil
}

// Dot returns the inner product of t and o.
func (t *Tensor) Dot(o *Tensor) (float64, error) {
	if len(t.Data) != len(o.Data) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrShape, len(t.Data), len(o.Data))
	}
	var s float64
	for i, v := range o.Data {
		s += float64(t.Data[i]) * float64(v)
	}
	return s, nil
}

// Norm2 returns the L2 norm of t.
func (t *Tensor) Norm2() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// MaxAbsDiff returns the largest absolute element-wise difference, used by
// tests to compare aggregation results within float tolerance.
func (t *Tensor) MaxAbsDiff(o *Tensor) (float64, error) {
	if len(t.Data) != len(o.Data) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrShape, len(t.Data), len(o.Data))
	}
	var m float64
	for i, v := range o.Data {
		d := math.Abs(float64(t.Data[i]) - float64(v))
		if d > m {
			m = d
		}
	}
	return m, nil
}

// accPool recycles the float64 accumulation buffers behind WeightedMeanInto
// so steady-state aggregation performs zero heap allocations. Buffers are
// held via a pointer-to-struct so Get/Put never box a slice header.
var accPool = sync.Pool{New: func() any { return new(accBuf) }}

type accBuf struct{ f []float64 }

// getAcc returns a zeroed accumulator of length n from the pool.
func getAcc(n int) *accBuf {
	b := accPool.Get().(*accBuf)
	if cap(b.f) < n {
		b.f = make([]float64, n)
	} else {
		b.f = b.f[:n]
		for i := range b.f {
			b.f[i] = 0
		}
	}
	return b
}

func putAcc(b *accBuf) { accPool.Put(b) }

// WeightedMean returns sum(w[k]*x[k]) / sum(w[k]) over the given tensors —
// the reference (lazy, batch) form of FedAvg aggregation, Eq. (1) of the
// paper with f = FedAvg. All tensors must share the physical length of the
// first; the result inherits its virtual length.
func WeightedMean(xs []*Tensor, ws []float64) (*Tensor, error) {
	if len(xs) == 0 {
		return nil, errors.New("tensor: WeightedMean of zero tensors")
	}
	out := NewVirtual(xs[0].Len(), xs[0].VirtualLen)
	if err := WeightedMeanInto(out, xs, ws); err != nil {
		return nil, err
	}
	return out, nil
}

// WeightedMeanInto computes sum(w[k]*x[k]) / sum(w[k]) into dst, which must
// have the physical length of xs[0]; dst adopts xs[0]'s virtual length. The
// float64 accumulation buffer comes from an internal pool, so the
// steady-state cost is zero heap allocations (guarded by an AllocsPerRun
// regression test) — the allocation-lean form for per-round aggregation.
func WeightedMeanInto(dst *Tensor, xs []*Tensor, ws []float64) error {
	if len(xs) == 0 {
		return errors.New("tensor: WeightedMean of zero tensors")
	}
	if len(xs) != len(ws) {
		return fmt.Errorf("tensor: %d tensors but %d weights", len(xs), len(ws))
	}
	var total float64
	for _, w := range ws {
		if w < 0 {
			return fmt.Errorf("tensor: negative weight %v", w)
		}
		total += w
	}
	if total == 0 {
		return errors.New("tensor: zero total weight")
	}
	if dst.Len() != xs[0].Len() {
		return fmt.Errorf("%w: dst has len %d, want %d", ErrShape, dst.Len(), xs[0].Len())
	}
	acc := getAcc(xs[0].Len())
	defer putAcc(acc)
	for k, x := range xs {
		if x.Len() != dst.Len() {
			return fmt.Errorf("%w: tensor %d has len %d, want %d", ErrShape, k, x.Len(), dst.Len())
		}
		w := ws[k]
		for i, v := range x.Data {
			acc.f[i] += w * float64(v)
		}
	}
	for i := range dst.Data {
		dst.Data[i] = float32(acc.f[i] / total)
	}
	dst.VirtualLen = xs[0].VirtualLen
	return nil
}

// Accumulator is the eager (cumulative) counterpart of WeightedMean: fold
// (update, weight) pairs in as they arrive — no Clone, no per-update
// allocation, float64 running sums for numerical stability — and emit the
// weighted mean on demand. This is the arithmetic core behind §2.1's
// "cumulative averaging makes the eager method feasible for FedAvg";
// fedavg.FedAvg delegates to it, and it is reusable across rounds via Reset.
type Accumulator struct {
	sum   []float64
	total float64
	count int
	// workers bounds the shard-sweep pool for Add/MeanInto (<= 1 = serial).
	// Folds are bit-identical for any value — see parallel.go.
	workers int

	// pool tags an accumulator handed out by a Pool; free marks it as
	// returned.
	pool *Pool
	free bool
}

// NewAccumulator returns an empty accumulator for physical length n.
func NewAccumulator(n int) *Accumulator {
	return &Accumulator{sum: make([]float64, n)}
}

// Len returns the physical element count.
func (a *Accumulator) Len() int { return len(a.sum) }

// Count returns how many updates have been folded in.
func (a *Accumulator) Count() int { return a.count }

// Total returns the running weight sum.
func (a *Accumulator) Total() float64 { return a.total }

// Add folds w*x into the running sum: the Clone-avoiding eager accumulate
// path. Weight must be positive.
func (a *Accumulator) Add(x *Tensor, w float64) error {
	if x.Len() != len(a.sum) {
		return fmt.Errorf("%w: update len %d, accumulator len %d", ErrShape, x.Len(), len(a.sum))
	}
	if w <= 0 {
		return fmt.Errorf("tensor: non-positive weight %v", w)
	}
	a.addSharded(x, w)
	a.total += w
	a.count++
	return nil
}

// MeanInto writes the current weighted mean into dst (physical lengths must
// match) without allocating. It errors if nothing has been accumulated.
func (a *Accumulator) MeanInto(dst *Tensor) error {
	if a.count == 0 {
		return errors.New("tensor: empty accumulator")
	}
	if dst.Len() != len(a.sum) {
		return fmt.Errorf("%w: dst len %d, accumulator len %d", ErrShape, dst.Len(), len(a.sum))
	}
	a.meanSharded(dst)
	return nil
}

// Reset clears the accumulator for reuse in the next round.
func (a *Accumulator) Reset() {
	for i := range a.sum {
		a.sum[i] = 0
	}
	a.total = 0
	a.count = 0
}

package tensor

// Pool recycles the host memory of one model geometry: aggregate and
// upload tensors, and the float64 accumulators behind fedavg states. A
// system instance owns one pool sized to its model, so the steady-state
// round loop reuses buffers instead of allocating tensor-sized memory.
//
// Ownership is carried by the buffer itself: every tensor or accumulator a
// pool hands out is tagged with that pool, so Put recognises its own
// buffers without a registry, ignores foreign ones (arena slots, global
// models, another pool's buffers), and panics on a second Put of the same
// buffer. A buffer that is never returned — an update lost with a failed
// instance or evicted with a retired round — is simply collected by the
// GC.
//
// A pool is not safe for concurrent use. It belongs to one single-threaded
// simulation; concurrently stepped systems (the cells of a fabric) each
// own their own pool.
//
// This is host-memory bookkeeping only. It changes no simulated cost: the
// shm store's accounting (shm.Store.Used/Peak/Recycles) is independent.
type Pool struct {
	phys, virtual int
	tensors       []*Tensor
	accs          []*Accumulator
}

// NewPool returns an empty pool for tensors of physical length phys
// representing virtual parameters (virtual < phys is raised to phys, as
// in NewVirtual).
func NewPool(phys, virtual int) *Pool {
	if virtual < phys {
		virtual = phys
	}
	return &Pool{phys: phys, virtual: virtual}
}

// Get returns a tensor of the pool's physical and virtual length. Its
// contents are unspecified: the caller overwrites every element before
// reading any.
func (p *Pool) Get() *Tensor {
	if n := len(p.tensors); n > 0 {
		t := p.tensors[n-1]
		p.tensors[n-1] = nil
		p.tensors = p.tensors[:n-1]
		t.free = false
		t.VirtualLen = p.virtual
		return t
	}
	t := NewVirtual(p.phys, p.virtual)
	t.pool = p
	return t
}

// Put returns t to the pool. It is a no-op for a nil tensor or one the
// pool did not hand out, and panics when t is already in the pool. The
// caller must hold the only live reference: t's bytes are reused by the
// next Get.
func (p *Pool) Put(t *Tensor) {
	if t == nil || t.pool != p {
		return
	}
	if t.free {
		panic("tensor: Pool.Put of a tensor already returned")
	}
	t.free = true
	poison32(t.Data)
	p.tensors = append(p.tensors, t)
}

// GetAccumulator returns an empty accumulator of the pool's physical
// length.
func (p *Pool) GetAccumulator() *Accumulator {
	if n := len(p.accs); n > 0 {
		a := p.accs[n-1]
		p.accs[n-1] = nil
		p.accs = p.accs[:n-1]
		a.free = false
		a.Reset()
		return a
	}
	a := NewAccumulator(p.phys)
	a.pool = p
	return a
}

// PutAccumulator returns a to the pool, with Put's rules: a no-op for an
// accumulator the pool did not hand out, a panic on a second return.
func (p *Pool) PutAccumulator(a *Accumulator) {
	if a == nil || a.pool != p {
		return
	}
	if a.free {
		panic("tensor: Pool.PutAccumulator of an accumulator already returned")
	}
	a.free = true
	a.workers = 0
	poison64(a.sum)
	p.accs = append(p.accs, a)
}

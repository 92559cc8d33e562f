package tensor

import "testing"

func TestPoolGetGeometry(t *testing.T) {
	p := NewPool(4, 100)
	x := p.Get()
	if x.Len() != 4 || x.VirtualLen != 100 {
		t.Fatalf("Get: len %d virtual %d, want 4 and 100", x.Len(), x.VirtualLen)
	}
	if v := NewPool(4, 2).Get().VirtualLen; v != 4 {
		t.Fatalf("virtual length below physical: got %d, want it raised to 4", v)
	}
	if a := p.GetAccumulator(); a.Len() != 4 || a.Count() != 0 {
		t.Fatalf("GetAccumulator: len %d count %d, want 4 and 0", a.Len(), a.Count())
	}
}

func TestPoolPutThenGetReuses(t *testing.T) {
	p := NewPool(4, 100)
	x := p.Get()
	x.VirtualLen = 7
	p.Put(x)
	y := p.Get()
	if y != x || &y.Data[0] != &x.Data[0] {
		t.Fatal("Get after Put did not reuse the returned tensor")
	}
	if y.VirtualLen != 100 {
		t.Fatalf("reused tensor has virtual length %d, want 100", y.VirtualLen)
	}
	a := p.GetAccumulator()
	if err := a.Add(FromSlice([]float32{1, 2, 3, 4}), 2); err != nil {
		t.Fatal(err)
	}
	p.PutAccumulator(a)
	b := p.GetAccumulator()
	if b != a {
		t.Fatal("GetAccumulator after PutAccumulator did not reuse the accumulator")
	}
	if b.Count() != 0 || b.Total() != 0 || b.sum[0] != 0 {
		t.Fatalf("reused accumulator not empty: count %d total %v sum[0] %v", b.Count(), b.Total(), b.sum[0])
	}
}

func TestPoolPutForeignIgnored(t *testing.T) {
	p, other := NewPool(4, 4), NewPool(4, 4)
	foreign := New(4)
	p.Put(foreign)
	p.Put(foreign) // still foreign: no double-Put panic
	p.Put(other.Get())
	p.Put(nil)
	p.PutAccumulator(NewAccumulator(4))
	p.PutAccumulator(other.GetAccumulator())
	if len(p.tensors) != 0 || len(p.accs) != 0 {
		t.Fatalf("pool kept %d foreign tensors and %d accumulators", len(p.tensors), len(p.accs))
	}
	if x := p.Get(); x == foreign || x.pool != p {
		t.Fatal("Get handed out a foreign tensor")
	}
}

func TestPoolDoublePutPanics(t *testing.T) {
	p := NewPool(4, 4)
	for name, f := range map[string]func(){
		"Put": func() {
			x := p.Get()
			p.Put(x)
			p.Put(x)
		},
		"PutAccumulator": func() {
			a := p.GetAccumulator()
			p.PutAccumulator(a)
			p.PutAccumulator(a)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("double %s did not panic", name)
				}
			}()
			f()
		}()
	}
}

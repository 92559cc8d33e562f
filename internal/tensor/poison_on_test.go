//go:build poolpoison

package tensor

import (
	"math"
	"testing"
)

// TestPoolPoisonsReturnedBuffers checks the use-after-recycle detector:
// under the poolpoison tag a returned buffer reads as NaN.
func TestPoolPoisonsReturnedBuffers(t *testing.T) {
	p := NewPool(3, 3)
	x := p.Get()
	x.Fill(1)
	p.Put(x)
	for i, v := range x.Data {
		if !math.IsNaN(float64(v)) {
			t.Fatalf("returned tensor element %d = %v, want NaN", i, v)
		}
	}
	a := p.GetAccumulator()
	p.PutAccumulator(a)
	for i, v := range a.sum {
		if !math.IsNaN(v) {
			t.Fatalf("returned accumulator element %d = %v, want NaN", i, v)
		}
	}
}

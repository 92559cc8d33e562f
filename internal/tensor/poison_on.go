//go:build poolpoison

package tensor

import "math"

// poison32 fills a recycled tensor with NaN: under the poolpoison tag, a
// consumer that reads a buffer after returning it to its Pool propagates
// NaN into the aggregate, which the byte-identity, golden and failover
// tests then reject.
func poison32(d []float32) {
	nan := float32(math.NaN())
	for i := range d {
		d[i] = nan
	}
}

// poison64 is poison32 for a recycled accumulator's running sums.
func poison64(d []float64) {
	nan := math.NaN()
	for i := range d {
		d[i] = nan
	}
}

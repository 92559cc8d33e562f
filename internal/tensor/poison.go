//go:build !poolpoison

package tensor

// poison32 and poison64 mark a buffer returned to a Pool. In normal builds
// they do nothing; the poolpoison build tag (poison_on.go) fills the buffer
// with NaN so any read after recycling corrupts results visibly.
func poison32([]float32) {}

func poison64([]float64) {}

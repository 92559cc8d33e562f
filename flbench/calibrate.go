package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// cpuNow is the CPU time the process has used, user plus system, summed
// over its threads. The guest kernel accounts stolen time apart, so a
// thread is not charged for time the hypervisor ran another tenant.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // only a bad argument fails, and RUSAGE_SELF is valid
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// The calibration kernel measures how fast the host runs the benchmark's
// kind of work right now. On a shared host the same run's CPU time moves
// with what other tenants do to the caches and memory system, and the
// host switches between fast and slow spells of tens of seconds that
// differ by up to 2.3x. The kernel is a fixed piece of work that shares
// no code with the repository and resembles the workloads' mix: a
// float32 fold over buffers larger than the L2 cache, as in the tensor
// and update kernels, and allocation-heavy map, pointer and sort work,
// as in the control plane. Passes run before and after every measured
// run, and dividing the run's CPU time by theirs removes most of the
// host's spell from it.

// calibRef is one calibration pass's CPU time on the reference host: a
// CPU time t measured next to passes of median c reads t·calibRef/c
// reference-host seconds.
const calibRef = 20 * time.Millisecond

// calibPasses is how many passes one calibration takes the median of.
const calibPasses = 3

// calibFloats is the length of each fold buffer: 8 MB.
const calibFloats = 2 << 20

// calibrator owns the fold's buffers. They are mapped outside the Go
// heap, so they neither count in the live-heap figure nor change when the
// collector runs during a measured run.
type calibrator struct {
	mem      []byte
	dst, src []float32
	passes   []float64 // CPU seconds of every pass
	sinkF    float32
	sinkN    int
}

func newCalibrator() (*calibrator, error) {
	mem, err := syscall.Mmap(-1, 0, 2*calibFloats*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration buffers: %w", err)
	}
	all := unsafe.Slice((*float32)(unsafe.Pointer(&mem[0])), 2*calibFloats)
	c := &calibrator{mem: mem, dst: all[:calibFloats], src: all[calibFloats:]}
	for i := range c.src {
		c.src[i] = float32(math.Sin(float64(i)))
	}
	return c, nil
}

func (c *calibrator) close() error {
	c.dst, c.src = nil, nil
	return syscall.Munmap(c.mem)
}

// measure collects garbage, runs calibPasses passes and returns their
// median CPU time in seconds.
func (c *calibrator) measure() float64 {
	runtime.GC()
	xs := make([]float64, calibPasses)
	for i := range xs {
		t := cpuNow()
		c.pass()
		xs[i] = (cpuNow() - t).Seconds()
	}
	c.passes = append(c.passes, xs...)
	return median(xs)
}

type calibNode struct {
	key  uint64
	buf  []byte
	next *calibNode
}

// pass is the kernel: four folds over the buffers, then 40,000 linked,
// variably sized allocations indexed by a map, whose keys are sorted.
func (c *calibrator) pass() {
	for p := range 4 {
		a := float32(p+1) * 0.25
		for i := range c.dst {
			c.dst[i] = c.dst[i]*0.5 + a*c.src[i]
		}
	}
	c.sinkF += c.dst[len(c.dst)/2]

	m := make(map[uint64]*calibNode)
	var head *calibNode
	x := uint64(0x9e3779b97f4a7c15)
	for range 40000 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		head = &calibNode{key: x, buf: make([]byte, 16+x%48), next: head}
		m[x%8192] = head
	}
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for n := head; n != nil; n = n.next {
		c.sinkN += len(n.buf)
	}
	c.sinkN += len(keys)
}

// calibrated scales a CPU time measured between two calibrations of
// median before and after seconds to reference-host seconds.
func calibrated(cpu time.Duration, before, after float64) float64 {
	return cpu.Seconds() * calibRef.Seconds() / ((before + after) / 2)
}

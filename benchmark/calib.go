package main

import "time"

// The sandboxes this benchmark runs in change speed by up to 1.6x over
// minutes (neighbours, frequency), which no amount of repetition inside
// one run averages out. Host-time metrics are therefore reported at the
// speed of a reference host: every timed interval is scaled by how fast a
// fixed calibration kernel — product-independent, allocation-free, half
// compute-bound and half cache-missing — ran immediately before and
// after it.

// calibReferenceNs is the kernel's duration on the reference host (2-core
// Xeon 2.1 GHz, go1.24): a host on which the kernel takes this long
// reports its times unscaled.
const calibReferenceNs = 9_000_000

const calibWords = 1 << 21 // 16 MiB of uint64: larger than the L2, mostly out of the L3

var calibTable = func() []uint64 {
	t := make([]uint64, calibWords)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range t {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t[i] = x
	}
	return t
}()

var calibSink uint64

// calibKernel runs the fixed computation once and returns how long it
// took.
func calibKernel() time.Duration {
	start := time.Now()
	t := calibTable
	x := uint64(88172645463325252)
	var acc uint64
	// Dependent random reads: each address comes from the previous load.
	for i := 0; i < 60_000; i++ {
		x = t[(x^acc)&(calibWords-1)] + uint64(i)
		acc += x >> 7
	}
	// Branchy integer work in registers.
	for i := 0; i < 700_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&3 == 0 {
			acc += x
		} else {
			acc ^= x >> 3
		}
	}
	calibSink = acc
	return time.Since(start)
}

// calibrator collects kernel timings over a run.
type calibrator struct{ ns []float64 }

// sample times the kernel n times; a nil calibrator takes no samples.
func (c *calibrator) sample(n int) {
	if c == nil {
		return
	}
	for i := 0; i < n; i++ {
		c.ns = append(c.ns, float64(calibKernel()))
	}
}

// slowness is how slow the host ran relative to the reference over the
// run: the median kernel time over calibReferenceNs. Above 1 the host is
// slower than the reference; host times are divided by it.
func (c *calibrator) slowness() float64 {
	return medianOf(c.ns) / calibReferenceNs
}

package main

import (
	"slices"
	"sync"
	"time"
)

// The sandbox this benchmark runs in has two virtual CPUs that the host
// at times places on one physical core, and neighbours that come and go:
// the wall time of identical work moves by 15–30 % over seconds to
// minutes, for every metric at once. A reference kernel — fixed work that
// no change to the program can touch — is therefore run right before each
// timed operation, and the bounded metrics are the operation's time
// divided by its kernel's time, which cancels the machine's share of the
// variation and leaves the program's. The raw times are reported beside
// them.

// refKernelInts sizes the kernel: filling and sorting this many ints
// takes about 13 ms on one worker.
const refKernelInts = 1 << 17

type calibrator struct {
	arrays [][]int // [0] for the single pass, [1:] one per worker
}

// newCalibrator sizes the kernel at ints elements per array
// (refKernelInts in a real run; tests pass fewer).
func newCalibrator(workers, ints int) *calibrator {
	c := &calibrator{arrays: make([][]int, workers+1)}
	for i := range c.arrays {
		c.arrays[i] = make([]int, ints)
	}
	return c
}

// fillSort is the kernel body: integer arithmetic, data-dependent
// branches and cache-sized memory traffic, like the program's hot paths.
func fillSort(xs []int) {
	x := uint64(12345)
	for i := range xs {
		x = x*6364136223846793005 + 1442695040888963407
		xs[i] = int(x >> 33)
	}
	slices.Sort(xs)
}

// single runs the kernel on the calling goroutine.
func (c *calibrator) single() time.Duration {
	t0 := time.Now()
	fillSort(c.arrays[0])
	return time.Since(t0)
}

// both is the median of n runs of bothOnce; operations that are timed
// only a few times per run pair with more kernel runs.
func (c *calibrator) both(n int) time.Duration {
	var s samples
	for i := 0; i < n; i++ {
		s.add(c.bothOnce())
	}
	return time.Duration(median(s.in(1)))
}

// bothOnce runs the kernel once alone and once on every worker at the
// same time, so that it feels a shared core the way a parallel stage
// does.
func (c *calibrator) bothOnce() time.Duration {
	t0 := time.Now()
	fillSort(c.arrays[0])
	var wg sync.WaitGroup
	for _, xs := range c.arrays[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fillSort(xs)
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// refKernelNominal is what bothOnce takes on this sandbox in a quiet
// minute; it scales setup_s, which the contract wants in seconds.
const refKernelNominal = 28 * time.Millisecond

// relSamples collects operation times with the kernel time measured
// right before each.
type relSamples struct {
	raw, kernel samples
	rel         []float64
}

func (s *relSamples) add(d, kernel time.Duration) {
	s.raw.add(d)
	s.kernel.add(kernel)
	s.rel = append(s.rel, float64(d)/float64(kernel))
}

// metric is the median of the relative samples.
func (s *relSamples) metric() metric { return metric{"", median(s.rel), "x", len(s.rel)} }

// best is the fastest operation over the fastest kernel run. The noise
// of this sandbox only ever slows things down, so for the microsecond
// requests of the serving loop, which it slows by other factors than it
// slows the kernel, the two best cases repeat where the medians do not.
func (s *relSamples) best() metric {
	return metric{"", float64(slices.Min(s.raw)) / float64(slices.Min(s.kernel)), "x", len(s.rel)}
}

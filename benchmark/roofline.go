package main

import (
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// roofline is a STREAM-style measurement of the memory bandwidth the
// solves compete for, taken in the same process on the same cores.
type roofline struct {
	llcBytes   int64 // 0 when the cache hierarchy cannot be read
	arrayBytes int64
	reps       int
	copyGBps   float64 // a[i] = b[i], 16 bytes per element
	triadGBps  float64 // a[i] = b[i] + s·c[i], 24 bytes per element
}

const (
	rooflineMaxArray     = 1 << 30
	rooflineDefaultArray = 256 << 20 // when the LLC size is unknown
	rooflineReps         = 3
)

// lastLevelCacheBytes reads the largest cache cpu0 reports.
func lastLevelCacheBytes() int64 {
	var llc int64
	for i := 0; ; i++ {
		b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/size")
		if err != nil {
			return llc
		}
		llc = max(llc, parseCacheSize(strings.TrimSpace(string(b))))
	}
}

// parseCacheSize parses sysfs cache sizes such as "48K" or "266240K".
func parseCacheSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return n * mult
}

// measureRoofline times copy and triad over float64 arrays of at least
// four times the last-level cache (capped at maxArray bytes each), split
// across workers goroutines, and keeps the best of rooflineReps passes.
func measureRoofline(workers int, maxArray int64) roofline {
	r := roofline{llcBytes: lastLevelCacheBytes(), reps: rooflineReps}
	r.arrayBytes = min(rooflineDefaultArray, maxArray)
	if r.llcBytes > 0 {
		r.arrayBytes = min(4*r.llcBytes, maxArray)
	}
	n := int(r.arrayBytes / 8)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	pass := func(kernel func(lo, hi int)) time.Duration {
		t0 := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := w*n/workers, (w+1)*n/workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				kernel(lo, hi)
			}()
		}
		wg.Wait()
		return time.Since(t0)
	}
	best := func(kernel func(lo, hi int)) time.Duration {
		d := pass(kernel) // also faults the pages of a in
		for i := 0; i < rooflineReps; i++ {
			d = min(d, pass(kernel))
		}
		return d
	}
	copyTime := best(func(lo, hi int) { copy(a[lo:hi], b[lo:hi]) })
	const s = 3.0
	triadTime := best(func(lo, hi int) {
		x, y, z := a[lo:hi], b[lo:hi], c[lo:hi]
		for i := range x {
			x[i] = y[i] + s*z[i]
		}
	})
	r.copyGBps = 16 * float64(n) / copyTime.Seconds() / 1e9
	r.triadGBps = 24 * float64(n) / triadTime.Seconds() / 1e9
	return r
}

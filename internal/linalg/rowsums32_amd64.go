//go:build amd64

package linalg

// rowSums32AVX is the AVX2 row-sum kernel (rowsums32_amd64.s). It writes
// acc[i] = the four-lane float64 dot product of row i against src for
// every i in [lo, hi), bitwise identical to rowSums32Go.
//
//go:noescape
func rowSums32AVX(rowPtr []int64, vals []float32, cols []int32, src []float32, acc []float64, lo, hi int)

// cpuHasAVX2 reports whether the CPU and OS support AVX2 with saved YMM
// state (rowsums32_amd64.s).
func cpuHasAVX2() bool

var useAVX2 = cpuHasAVX2()

// rowSums32 dispatches the row-sum pass to the AVX2 kernel when the host
// supports it. Both implementations realize the same fixed four-lane
// accumulation scheme, so the choice never changes output bits.
func rowSums32(rowPtr []int64, vals []float32, cols []int32, src []float32, acc []float64, lo, hi int) {
	if useAVX2 {
		rowSums32AVX(rowPtr, vals, cols, src, acc, lo, hi)
		return
	}
	rowSums32Go(rowPtr, vals, cols, src, acc, lo, hi)
}

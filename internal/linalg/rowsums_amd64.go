//go:build amd64

package linalg

// rowSums32AVX is the AVX2 float32 row-sum kernel (rowsums32_amd64.s). It
// writes acc[i] = the four-lane float64 dot product of row i against src
// for every i in [lo, hi), bitwise identical to rowSums32Go.
//
//go:noescape
func rowSums32AVX(rowPtr []int64, vals []float32, cols []int32, src []float32, acc []float64, lo, hi int)

// rowSums64AVX is the AVX2 float64 row-sum kernel (rowsums64_amd64.s). It
// writes sums[i] = the sequential dot product of row i against src,
// bitwise identical to rowSums64Go, for i from lo up, and returns the
// first row it did not write: hi, or the first row whose RowPtr pair, or
// one of whose columns, is out of range. The caller guarantees
// 0 <= lo, hi < len(rowPtr) and hi <= len(sums); everything else the
// kernel checks itself.
//
//go:noescape
func rowSums64AVX(rowPtr []int64, vals []float64, cols []int32, src, sums []float64, lo, hi int) (next int)

// rowSums64PairAVX is rowSums64AVX over two interleaved columns, bitwise
// identical to rowSums64PairGo; a column c is in range when 2c+1 < len(src).
//
//go:noescape
func rowSums64PairAVX(rowPtr []int64, vals []float64, cols []int32, src, sums []float64, lo, hi int) (next int)

// cpuHasAVX2 reports whether the CPU and OS support AVX2 with saved YMM
// state (rowsums32_amd64.s).
func cpuHasAVX2() bool

var useAVX2 = cpuHasAVX2()

// RowSumsImpl names the row-sum pass this host's solves run at either
// precision: "avx2" or "go". The two compute the same bits; with the Go
// loops an iteration takes about a third longer at float64 and a quarter
// longer at float32 (DESIGN.md §13).
func RowSumsImpl() string {
	if useAVX2 {
		return "avx2"
	}
	return "go"
}

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

// rowSums64 runs the AVX2 kernel over as many rows as it accepts — all of
// them on a valid matrix — and rowSums64Go over the rest, so an operand the
// kernel rejects panics in the Go loop's own bounds checks, with every row
// before the bad one already written.
func rowSums64(rowPtr []int64, vals []float64, cols []int32, src, sums []float64, lo, hi int) {
	if useAVX2 && 0 <= lo && hi < len(rowPtr) && hi <= len(sums) {
		lo = rowSums64AVX(rowPtr, vals, cols, src, sums, lo, hi)
	}
	rowSums64Go(rowPtr, vals, cols, src, sums, lo, hi)
}

// rowSums64Pair is rowSums64 for the pair pass.
func rowSums64Pair(rowPtr []int64, vals []float64, cols []int32, src, sums []float64, lo, hi int) {
	if useAVX2 && 0 <= lo && hi < len(rowPtr) && 2*hi <= len(sums) {
		lo = rowSums64PairAVX(rowPtr, vals, cols, src, sums, lo, hi)
	}
	rowSums64PairGo(rowPtr, vals, cols, src, sums, lo, hi)
}

//go:build !amd64

package linalg

// RowSumsImpl names the row-sum pass this host's solves run: off amd64,
// always the portable Go loops.
func RowSumsImpl() string { return "go" }

// rowSums32 on non-amd64 hosts is the portable four-lane kernel.
func rowSums32(rowPtr []int64, vals []float32, cols []int32, src []float32, acc []float64, lo, hi int) {
	rowSums32Go(rowPtr, vals, cols, src, acc, lo, hi)
}

// rowSums64 on non-amd64 hosts is the portable sequential sum.
func rowSums64(rowPtr []int64, vals []float64, cols []int32, src, sums []float64, lo, hi int) {
	rowSums64Go(rowPtr, vals, cols, src, sums, lo, hi)
}

// rowSums64Pair on non-amd64 hosts is the portable pair pass.
func rowSums64Pair(rowPtr []int64, vals []float64, cols []int32, src, sums []float64, lo, hi int) {
	rowSums64PairGo(rowPtr, vals, cols, src, sums, lo, hi)
}

//go:build !amd64

package linalg

// rowSums32 on non-amd64 hosts is the portable four-lane kernel.
func rowSums32(rowPtr []int64, vals []float32, cols []int32, src []float32, acc []float64, lo, hi int) {
	rowSums32Go(rowPtr, vals, cols, src, acc, lo, hi)
}

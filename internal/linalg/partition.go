package linalg

import "math/bits"

// partitionRowsByNNZ splits [0, m.Rows) into workers contiguous ranges of
// approximately equal nonzero count. It returns workers+1 boundaries.
func partitionRowsByNNZ[F Float](m *Matrix[F], workers int) []int {
	return partitionPtrByNNZ(m.RowPtr, m.Rows, workers)
}

// partitionPtrByNNZ is partitionRowsByNNZ on a bare row-pointer array: a
// float32 mirror reuses its source CSR's RowPtr, so both precisions see
// identical stripe boundaries, and a slab-backed operand's memory-mapped
// RowPtr section stripes through here untouched.
func partitionPtrByNNZ(rowPtr []int64, rows, workers int) []int {
	bounds := make([]int, workers+1)
	bounds[workers] = rows
	total := rowPtr[rows]
	if total == 0 {
		// Degenerate: balance by rows.
		for w := 1; w < workers; w++ {
			bounds[w] = w * rows / workers
		}
		return bounds
	}
	row := 0
	for w := 1; w < workers; w++ {
		// target = total·w/workers in 128-bit arithmetic: the direct
		// int64 product overflows once total exceeds MaxInt64/workers
		// (a few tens of exabytes of entries are not needed for that —
		// a crafted or corrupt prefix sum suffices). bits.Div64 cannot
		// panic here: the quotient is < total ≤ MaxInt64, so the high
		// word is always < workers. Exact division keeps the result
		// bit-identical to the old expression wherever it didn't
		// overflow.
		phi, plo := bits.Mul64(uint64(total), uint64(w))
		q, _ := bits.Div64(phi, plo, uint64(workers))
		target := int64(q)
		for row < rows && rowPtr[row] < target {
			row++
		}
		bounds[w] = row
	}
	return bounds
}

package linalg

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
)

// MulVec computes dst = M·x serially. dst and x must not alias.
// It panics on dimension mismatch. Here and in MulVecParallel each product
// is explicitly rounded before it is added, as in rowSums64Go, whose
// unfused oracle these two are: no architecture may fuse it into the add.
func MulVec(m *CSR, x, dst Vector) {
	checkMulDims(m, x, dst)
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		var s float64
		for k := lo; k < hi; k++ {
			s += float64(m.Vals[k] * x[m.Cols[k]])
		}
		dst[i] = s
	}
}

// MulVecParallel computes dst = M·x with rows partitioned across workers.
// Each worker writes a disjoint slice of dst, so no synchronization beyond
// the final WaitGroup is needed. workers <= 0 selects GOMAXPROCS.
// Row ranges are balanced by nonzero count, not row count, so a few very
// heavy rows (high-degree hubs in a power-law graph) do not serialize the
// computation.
func MulVecParallel(m *CSR, x, dst Vector, workers int) {
	checkMulDims(m, x, dst)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > m.Rows {
		workers = m.Rows
	}
	if workers <= 1 || m.NNZ() < 4096 {
		MulVec(m, x, dst)
		return
	}
	bounds := partitionRowsByNNZ(m, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := bounds[w], bounds[w+1]
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				a, b := m.RowPtr[i], m.RowPtr[i+1]
				var s float64
				for k := a; k < b; k++ {
					s += float64(m.Vals[k] * x[m.Cols[k]])
				}
				dst[i] = s
			}
		}(lo, hi)
	}
	wg.Wait()
}

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

func checkMulDims[F Float](m *Matrix[F], x, dst []F) {
	if len(x) != m.ColsN {
		panic(fmt.Sprintf("linalg: MulVec x length %d, want %d", len(x), m.ColsN))
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("linalg: MulVec dst length %d, want %d", len(dst), m.Rows))
	}
}

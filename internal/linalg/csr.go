package linalg

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Float is the set of value types a Matrix — and with it the solve kernel
// and the slab opener — is instantiated at.
type Float interface{ float32 | float64 }

// Matrix is an immutable weighted sparse matrix in compressed-sparse-row
// form with values of type F. Row i's nonzeros occupy
// Cols[RowPtr[i]:RowPtr[i+1]] with matching Vals. Within a row, column
// indices are strictly increasing.
type Matrix[F Float] struct {
	Rows   int
	ColsN  int
	RowPtr []int64
	Cols   []int32
	Vals   []F

	// res is non-nil when the arrays alias a memory-mapped slab opened
	// under a residency budget (see slab.go); the fused kernel reports
	// each row stripe it consumes to it. Ordinary in-RAM matrices leave
	// it nil.
	res *slabResidency
}

// CSR is the float64 matrix every builder in the pipeline produces.
type CSR = Matrix[float64]

// CSR32 is the float32-valued mirror of a CSR: the solve kernel streams
// half the value bytes per iteration through it, while every reduction
// still accumulates in float64 (see fused.go). Everything else in the
// pipeline keeps using the float64 CSR.
type CSR32 = Matrix[float32]

// NewCSR32 narrows m's values entrywise (round to nearest even), sharing
// its index arrays, so the sparsity structure is identical by construction
// and the mirror costs 4·NNZ bytes on top of the shared indices. m must
// not be mutated afterwards (CSR is immutable by convention already).
func NewCSR32(m *CSR) *CSR32 {
	return &CSR32{Rows: m.Rows, ColsN: m.ColsN, RowPtr: m.RowPtr, Cols: m.Cols, Vals: narrow[float32](m.Vals)}
}

// Entry is a single (row, col, value) triple used when building a CSR.
type Entry struct {
	Row, Col int
	Val      float64
}

// ErrBadShape reports an invalid matrix dimension.
var ErrBadShape = errors.New("linalg: invalid matrix shape")

// NewCSR builds a CSR matrix from an unordered list of entries. Duplicate
// (row, col) entries are summed. Entries outside [0,rows)×[0,cols) return
// an error.
func NewCSR(rows, cols int, entries []Entry) (*CSR, error) {
	if rows < 0 || cols < 0 {
		return nil, ErrBadShape
	}
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			return nil, fmt.Errorf("linalg: entry (%d,%d) outside %dx%d matrix", e.Row, e.Col, rows, cols)
		}
	}
	sorted := make([]Entry, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	m := &CSR{
		Rows:   rows,
		ColsN:  cols,
		RowPtr: make([]int64, rows+1),
	}
	// Coalesce duplicates while copying into the column/value arrays.
	for i := 0; i < len(sorted); {
		j := i + 1
		v := sorted[i].Val
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			v += sorted[j].Val
			j++
		}
		m.Cols = append(m.Cols, int32(sorted[i].Col))
		m.Vals = append(m.Vals, v)
		m.RowPtr[sorted[i].Row+1]++
		i = j
	}
	for i := 0; i < rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m, nil
}

// NNZ returns the number of stored nonzeros.
func (m *Matrix[F]) NNZ() int { return len(m.Vals) }

// Row returns the column indices and values of row i. The returned slices
// alias the matrix storage and must not be modified.
func (m *Matrix[F]) Row(i int) ([]int32, []F) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.Cols[lo:hi], m.Vals[lo:hi]
}

// At returns the value at (i, j), or 0 if the entry is not stored.
func (m *Matrix[F]) At(i, j int) float64 {
	cols, vals := m.Row(i)
	k := sort.Search(len(cols), func(k int) bool { return cols[k] >= int32(j) })
	if k < len(cols) && cols[k] == int32(j) {
		return float64(vals[k])
	}
	return 0
}

// RowSum returns the sum of the stored values in row i.
func (m *Matrix[F]) RowSum(i int) float64 {
	_, vals := m.Row(i)
	var s float64
	for _, v := range vals {
		s += float64(v)
	}
	return s
}

// transposeMaterializations counts, process-wide, how many times
// TransposeParallel has materialized a transpose. The pipeline reuse tests
// assert on deltas of this counter to catch code paths that
// re-materialize the transpose of a matrix they already have.
var transposeMaterializations atomic.Uint64

// TransposeMaterializations returns the process-wide count of transpose
// materializations performed so far.
func TransposeMaterializations() uint64 { return transposeMaterializations.Load() }

// transposeParallelMinNNZ gates the parallel transpose: below it one
// worker wins on setup cost. Variable so tests can force the parallel
// path on small fixtures.
var transposeParallelMinNNZ = 4096

// TransposeParallel returns Mᵀ as a new matrix by a counting sort in
// three phases: count, cursor, scatter. workers <= 0 selects GOMAXPROCS;
// a matrix under transposeParallelMinNNZ entries, or with fewer rows
// than workers, takes fewer, and one worker runs every phase inline. The
// result is bitwise the same for any worker count: each worker owns a
// contiguous source-row range, and per-worker column cursors are laid out
// in worker order, so entries within a destination row land in
// increasing source-row order.
func (m *Matrix[F]) TransposeParallel(workers int) *Matrix[F] {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > m.Rows {
		workers = m.Rows
	}
	if workers < 1 || m.NNZ() < transposeParallelMinNNZ {
		workers = 1
	}
	transposeMaterializations.Add(1)
	t := &Matrix[F]{
		Rows:   m.ColsN,
		ColsN:  m.Rows,
		RowPtr: make([]int64, m.ColsN+1),
		Cols:   make([]int32, len(m.Cols)),
		Vals:   make([]F, len(m.Vals)),
	}
	// each runs a phase for every worker, worker 0 on this goroutine.
	each := func(phase func(w int)) {
		var wg sync.WaitGroup
		for w := 1; w < workers; w++ {
			wg.Add(1)
			go func() { defer wg.Done(); phase(w) }()
		}
		phase(0)
		wg.Wait()
	}
	bounds := partitionRowsByNNZ(m, workers)
	// Phase 1: each worker counts column occurrences in its row range.
	counts := make([][]int64, workers)
	each(func(w int) {
		cnt := make([]int64, m.ColsN)
		lo, hi := m.RowPtr[bounds[w]], m.RowPtr[bounds[w+1]]
		for _, c := range m.Cols[lo:hi] {
			cnt[c]++
		}
		counts[w] = cnt
	})
	// Phase 2: per-column totals, prefix-summed into RowPtr.
	for c := 0; c < t.Rows; c++ {
		var s int64
		for w := 0; w < workers; w++ {
			s += counts[w][c]
		}
		t.RowPtr[c+1] = s + t.RowPtr[c]
	}
	// Phase 3: turn counts into per-worker write cursors — worker w's
	// cursor for column c starts after every lower-ranked worker's
	// entries — then scatter.
	colChunk := (t.Rows + workers - 1) / workers
	each(func(w int) {
		for c := w * colChunk; c < min((w+1)*colChunk, t.Rows); c++ {
			run := t.RowPtr[c]
			for v := 0; v < workers; v++ {
				n := counts[v][c]
				counts[v][c] = run
				run += n
			}
		}
	})
	each(func(w int) {
		next := counts[w]
		for r := bounds[w]; r < bounds[w+1]; r++ {
			lo, hi := m.RowPtr[r], m.RowPtr[r+1]
			for k := lo; k < hi; k++ {
				c := int(m.Cols[k])
				pos := next[c]
				t.Cols[pos] = int32(r)
				t.Vals[pos] = m.Vals[k]
				next[c] = pos + 1
			}
		}
	})
	return t
}

// Validate checks structural invariants: monotone row pointers, in-range
// and strictly increasing column indices per row, finite values.
func (m *Matrix[F]) Validate() error {
	if err := m.validateShape(); err != nil {
		return err
	}
	return m.validateRowRange(0, m.Rows)
}

// validateShape checks the O(1) storage invariants: dimensions, array
// lengths, and the row-pointer anchors.
func (m *Matrix[F]) validateShape() error {
	if m.Rows < 0 || m.ColsN < 0 {
		return ErrBadShape
	}
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("linalg: RowPtr length %d, want %d", len(m.RowPtr), m.Rows+1)
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("linalg: RowPtr[0] = %d, want 0", m.RowPtr[0])
	}
	if int(m.RowPtr[m.Rows]) != len(m.Cols) || len(m.Cols) != len(m.Vals) {
		return fmt.Errorf("linalg: storage lengths inconsistent: RowPtr end %d, cols %d, vals %d",
			m.RowPtr[m.Rows], len(m.Cols), len(m.Vals))
	}
	return nil
}

// validateRowRange checks the per-row invariants for rows [lo, hi). The
// slab opener sweeps a mapped matrix through it in bounded-residency
// blocks (slab.go); Validate covers the whole range in one call.
func (m *Matrix[F]) validateRowRange(lo, hi int) error {
	for i := lo; i < hi; i++ {
		if m.RowPtr[i] > m.RowPtr[i+1] {
			return fmt.Errorf("linalg: row %d has negative extent", i)
		}
		// Bound the pointers before Row slices with them: monotonicity
		// alone does not keep an adversarial RowPtr (e.g. a decoded slab)
		// inside the entry arrays until the whole array has been walked.
		if m.RowPtr[i] < 0 || m.RowPtr[i+1] > int64(len(m.Cols)) {
			return fmt.Errorf("linalg: row %d extent [%d,%d) outside the %d stored entries",
				i, m.RowPtr[i], m.RowPtr[i+1], len(m.Cols))
		}
		cols, vals := m.Row(i)
		for k, c := range cols {
			if c < 0 || int(c) >= m.ColsN {
				return fmt.Errorf("linalg: row %d col %d out of range [0,%d)", i, c, m.ColsN)
			}
			if k > 0 && cols[k-1] >= c {
				return fmt.Errorf("linalg: row %d columns not strictly increasing at %d", i, k)
			}
			// A float32 widens exactly, and only its infinities pass 1e308.
			if v := float64(vals[k]); v != v || v > 1e308 || v < -1e308 {
				return fmt.Errorf("linalg: row %d col %d non-finite value", i, c)
			}
		}
	}
	return nil
}

// IsRowStochastic reports whether every nonempty row sums to 1 within tol
// and every stored value is nonnegative. Empty rows are permitted (callers
// decide how to treat dangling rows).
func (m *Matrix[F]) IsRowStochastic(tol float64) bool {
	for i := 0; i < m.Rows; i++ {
		_, vals := m.Row(i)
		if len(vals) == 0 {
			continue
		}
		var s float64
		for _, v := range vals {
			if v < 0 {
				return false
			}
			s += float64(v)
		}
		if s < 1-tol || s > 1+tol {
			return false
		}
	}
	return true
}

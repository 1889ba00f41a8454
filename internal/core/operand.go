package core

import (
	"runtime"
	"sort"
	"sync"

	"sourcerank/internal/linalg"
	"sourcerank/internal/throttle"
)

// operand is what an SRSR solve iterates over: T″ᵀ for the power method,
// or, when bias is set, the Jacobi operand D⁻¹·offdiag(α·T″ᵀ) with bias
// D⁻¹(1−α)c, D = I − α·diag(T″) (see Config), which jacobiOperand builds
// straight from T and pat lets a later refresh rewrite in place.
type operand struct {
	m    *linalg.CSR
	bias linalg.Vector
	pat  *pattern
}

// pattern is what a Jacobi operand keeps of its build so that a refresh
// over T's sparsity rewrites values only. The first four fields are fixed
// once built; scale and d are rewritten by every value pass.
type pattern struct {
	// rowPtr and cols are the arrays of the T it was built over; a T that
	// shares them (source.Incremental.Emit after a count drift) has the
	// same sparsity.
	rowPtr []int64
	cols   []int32
	// keep[j] reports that row j of T″ keeps T's off-diagonal entries
	// (throttle.Row did not make it a self-loop).
	keep []bool
	// from[e] is the index into T's arrays of the entry operand entry e
	// came from: m's entry e in row i, column j is T″ⱼᵢ.
	from []int64
	// scale[j] is row j's factor on its kept off-diagonals; d[i] = Dᵢᵢ.
	scale, d []float64
}

// operandStripeNNZ is the fewest operand entries worth a goroutine of
// the value pass. Variable so tests can stripe small operands.
var operandStripeNNZ = 1 << 15

// jacobiOperand returns SRSR's Jacobi operand over T″, T under κ, at
// mixing parameter alpha, without materializing T″ or its transpose:
// each row of T goes through throttle.Row, and the kept off-diagonal
// entries are placed by a counting-sort transpose, T″ⱼᵢ into row i of the
// operand, in increasing j. Entry by entry that is
// rank.NewSplit(throttle.Apply(T, κ).TransposeParallel(w), alpha) and its
// Bias(uniform), bit for bit. When prev was built over T's RowPtr and Cols
// and keeps the same rows, its arrays are rewritten in place: prev must
// be private to the caller, who gives it up.
func jacobiOperand(t *linalg.CSR, kappa []float64, alpha float64, workers int, prev operand) (operand, error) {
	if t.Rows != t.ColsN {
		return operand{}, linalg.ErrDimension
	}
	n := t.Rows
	if err := throttle.Validate(kappa, n); err != nil {
		return operand{}, err
	}
	if p := prev.pat; p != nil && sameArray(p.rowPtr, t.RowPtr) && sameArray(p.cols, t.Cols) && p.rules(t, kappa, alpha, true) {
		p.values(t, prev.m, alpha, workers)
		p.bias(prev.bias, alpha)
		return prev, nil
	}
	p := &pattern{rowPtr: t.RowPtr, cols: t.Cols, keep: make([]bool, n), scale: make([]float64, n), d: make([]float64, n)}
	p.rules(t, kappa, alpha, false)
	m := &linalg.CSR{Rows: n, ColsN: n, RowPtr: make([]int64, n+1)}
	for j := 0; j < n; j++ {
		if p.keep[j] {
			for _, i := range t.Cols[t.RowPtr[j]:t.RowPtr[j+1]] {
				if int(i) != j {
					m.RowPtr[i+1]++
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	nnz := m.RowPtr[n]
	m.Cols, m.Vals, p.from = make([]int32, nnz), make([]float64, nnz), make([]int64, nnz)
	next := make([]int64, n)
	copy(next, m.RowPtr[:n])
	for j := 0; j < n; j++ {
		if !p.keep[j] {
			continue
		}
		for k := t.RowPtr[j]; k < t.RowPtr[j+1]; k++ {
			if i := t.Cols[k]; int(i) != j {
				e := next[i]
				m.Cols[e], p.from[e] = int32(j), k
				next[i]++
			}
		}
	}
	p.values(t, m, alpha, workers)
	bias := make(linalg.Vector, n)
	p.bias(bias, alpha)
	return operand{m: m, bias: bias, pat: p}, nil
}

// sameArray reports whether a and b are one array, not merely equal ones.
func sameArray[E any](a, b []E) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// rules writes each row's scale and D entry from throttle.Row, and which
// rows keep their off-diagonals into keep. With check it compares those
// against keep instead, and reports whether the pattern still holds.
func (p *pattern) rules(t *linalg.CSR, kappa []float64, alpha float64, check bool) bool {
	for j := range p.d {
		cols, vals := t.Row(j)
		r := throttle.Row(cols, vals, j, kappa[j])
		keep := r.Kind != throttle.SelfLoop
		if !check {
			p.keep[j] = keep
		} else if keep != p.keep[j] {
			return false
		}
		p.scale[j], p.d[j] = r.Scale, 1-alpha*r.Self
	}
	return true
}

// values writes every operand entry, α·T″ⱼᵢ/Dᵢᵢ with T″ⱼᵢ = T_ji·scaleⱼ,
// in the order rank.NewSplit evaluates it. Each entry depends on nothing
// but T, scale and d, so the stripes split the rows however they like and
// the bits stay the same.
func (p *pattern) values(t, m *linalg.CSR, alpha float64, workers int) {
	stripe := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			di := p.d[i]
			for e := m.RowPtr[i]; e < m.RowPtr[i+1]; e++ {
				m.Vals[e] = alpha * (t.Vals[p.from[e]] * p.scale[m.Cols[e]]) / di
			}
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nnz := int(m.RowPtr[m.Rows])
	workers = min(workers, nnz/operandStripeNNZ)
	if workers <= 1 {
		stripe(0, m.Rows)
		return
	}
	var wg sync.WaitGroup
	lo := 0
	for w := 1; w <= workers; w++ {
		hi := m.Rows
		if w < workers {
			target := int64(nnz * w / workers)
			hi = sort.Search(m.Rows, func(i int) bool { return m.RowPtr[i+1] >= target })
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			stripe(lo, hi)
		}(lo, hi)
		lo = hi
	}
	wg.Wait()
}

// bias writes b̃ = D⁻¹(1−α)c over the uniform teleport c into b, as
// rank.Split.Bias does.
func (p *pattern) bias(b linalg.Vector, alpha float64) {
	c := 1 / float64(len(b))
	for i := range b {
		b[i] = (1 - alpha) * c / p.d[i]
	}
}

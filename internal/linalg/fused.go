package linalg

import (
	"fmt"
	"math"
	"runtime"
	"unsafe"
)

// This file implements the fused iteration kernel behind the ranking
// solvers, once, for both value types. One solver iteration used to make
// 4–5 separate passes over the score vector (SpMV, scale, lost-mass sum,
// teleport add, residual norm); the kernel collapses them into two
// parallel stripe passes (one for the affine form) plus a cheap serial
// reduction, with zero per-iteration allocation. An affine kernel may step
// a pair of systems over one operand at once (JacobiAffineTPair), each
// column bitwise its solo solve.
//
// Determinism contract: the stripe structure is a function of the matrix
// alone (never the worker count), every row accumulates in a fixed order,
// and the per-stripe residual partials are combined by a fixed-pairing
// tree reduce (reduceResidual) — so kernel output and residual are
// bitwise identical at every worker count. At float64 the
// iterate update additionally reproduces the exact floating-point
// operation sequence of the unfused row-by-row product + Scale +
// index-order sum + axpy path (fused_test.go keeps that sequence as its
// oracle).
//
// Precision: the kernel is memory-bandwidth-bound — at zero allocations
// per iteration, wall time tracks the bytes of CSR arrays and vectors
// streamed through the memory hierarchy — so float32 spends precision on
// storage only. The matrix values, iterate and teleport/bias are held at
// half width; every reduction (per-row dot products, the lost-mass sum,
// the convergence residual) accumulates in float64 and is rounded to F
// exactly once per output element. The one step written per value type is
// the row dot product (rowSums); everything else below is shared. There
// is no bitwise relationship between the two instantiations; rank-order
// fidelity between them is certified end to end by internal/rankeval (see
// internal/core's precision tests and DESIGN.md §13).

// ResidualNorm selects the norm a fused kernel accumulates alongside the
// iteration update.
type ResidualNorm int

const (
	// ResidualL2 is ‖dst−src‖₂, the paper's convergence measure and the
	// solvers' default.
	ResidualL2 ResidualNorm = iota
	// ResidualL1 is ‖dst−src‖₁, the total-variation-style measure common
	// in PageRank implementations.
	ResidualL1
)

// fusedMinNNZ gates the pooled parallel path; below it the serial loop
// wins. Variable so tests can force the parallel path on small matrices.
var fusedMinNNZ = 4096

// fusedNNZPerStripe sizes the row stripes: small enough that moderate
// graphs still split across every core, large enough that a stripe
// amortizes its channel round-trip. Variable so tests can force
// multi-stripe partitions (and thus the tree reduce) on small fixtures.
var fusedNNZPerStripe = 4096

// stripeCountFor picks the number of row stripes for the fused kernel.
// It depends only on the sparsity structure, never on the worker count
// or the value type, so the summation structure — and with it the
// residual, bit for bit — is identical for every worker count, and both
// precisions partition a given structure identically. A stripe carries
// one partial float, no accumulator vector, so stripes are cheap and the
// cap is generous.
func stripeCountFor(nnz, rows int) int {
	s := nnz / fusedNNZPerStripe
	if s < 1 {
		s = 1
	}
	if s > 128 {
		s = 128
	}
	if s > rows {
		s = rows
	}
	if s < 1 {
		s = 1
	}
	return s
}

// fused kernel phases (see runStripe).
const (
	fusedPhaseMul    = iota // dst[i] = c·(row i of pt)·src
	fusedPhaseFinish        // dst[i] += lost·t[i], residual partials
	fusedPhaseAffine        // dst[i] = c·(row i of at)·src + b[i], residual partials, per column
)

// fusedKernel is the machinery behind FusedPower and the Jacobi solve: a
// matrix-derived stripe partition and a persistent worker pool. Workers
// are parked on a channel for the lifetime of the kernel, so repeated
// steps spawn no goroutines and allocate nothing — the per-pass state
// travels through struct fields, ordered by the channel sends
// (coordinator writes happen-before worker reads, worker writes
// happen-before the coordinator's done receive).
type fusedKernel[F Float] struct {
	mat    *Matrix[F]
	c      float64
	affine bool // one affine pass per step instead of multiply + finish
	norm   ResidualNorm

	// aux is the dense teleport t (power) or bias b (affine). A power
	// kernel with nil aux holds the uniform teleport implicitly as the
	// scalar uniform = float64(F(1/Rows)) — the value a materialized
	// uniform t would store, widened once — saving one resident vector,
	// which matters on slab-backed solves where the dense vectors are the
	// entire memory budget. lost·uniform computes the same bits as
	// lost·t[i], so the two teleport cases are bitwise identical.
	aux     []F
	uniform float64

	// cols is 1, or 2 for a pair of affine systems (JacobiAffineTPair):
	// column j is entry 2i+j of src and dst and adds bias aux (j = 0) or
	// aux2, each element taking the solo kernel's operations in order.
	cols int
	aux2 []F

	// win, when non-nil, is told the entry range of each stripe a
	// matrix-touching phase starts on and finishes, and when the pass
	// ends; slab-backed operands under a residency budget use it to drop
	// consumed Cols/Vals pages a window at a time (see releaseWindow).
	// Releasing is a pure residency hint and never changes computed bits.
	win *releaseWindow

	bounds  []int     // stripe row boundaries, one per stripe plus one
	partial []float64 // per-stripe residual partials, column j's at [j·stripes, (j+1)·stripes)
	acc     []float64 // float32 only: len Rows, float64 row sums of the current pass

	// Per-pass state, written by the coordinator between dispatches.
	src, dst []F
	lost     float64
	phase    int

	work chan int      // stripe indices; nil when running serially
	done chan struct{} // one token per completed stripe
}

// denseBytes is the Rows-length memory a solve keeps resident next to the
// matrix, which the release window of a slab-backed operand has to leave
// room for: the driver's two iterates, the dense teleport or bias when
// there is one, and at float32 the float64 row-sum array and the float64
// vector the result is widened into.
func denseBytes[F Float](rows int, denseAux bool) int64 {
	var zero F
	size := int64(unsafe.Sizeof(zero))
	per := 2 * size
	if denseAux {
		per += size
	}
	if size == 4 {
		per += 8 + 8
	}
	return per * int64(rows)
}

func newFusedKernel[F Float](mat *Matrix[F], c float64, aux []F, affine bool, norm ResidualNorm, workers int) (*fusedKernel[F], error) {
	if mat.Rows != mat.ColsN || (aux != nil || affine) && len(aux) != mat.Rows {
		return nil, ErrDimension
	}
	stripes := stripeCountFor(mat.NNZ(), mat.Rows)
	k := &fusedKernel[F]{
		mat:     mat,
		c:       c,
		affine:  affine,
		norm:    norm,
		aux:     aux,
		uniform: float64(F(1 / float64(mat.Rows))),
		cols:    1,
		win:     mat.res.newWindow(denseBytes[F](mat.Rows, aux != nil)),
		bounds:  partitionRowsByNNZ(mat, stripes),
		partial: make([]float64, stripes),
	}
	if precisionOf[F]() == Float32 {
		k.acc = make([]float64, mat.Rows)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > stripes {
		workers = stripes
	}
	if workers > 1 && mat.NNZ() >= fusedMinNNZ {
		k.work = make(chan int, stripes)
		k.done = make(chan struct{}, stripes)
		for i := 0; i < workers; i++ {
			go k.worker(k.work)
		}
	}
	return k, nil
}

// worker drains stripe indices until the channel closes. The channel is
// passed in (not read from the struct field) so Close can nil the field
// without racing the range loop.
func (k *fusedKernel[F]) worker(work <-chan int) {
	for s := range work {
		k.stripe(s)
		k.done <- struct{}{}
	}
}

// dispatch runs every stripe of the current phase, on the pool when one
// exists and inline otherwise. Both orders produce identical bits: each
// stripe writes a disjoint dst range, a disjoint acc range and its own
// partial slot.
func (k *fusedKernel[F]) dispatch() {
	stripes := len(k.bounds) - 1
	if k.work == nil {
		for s := 0; s < stripes; s++ {
			k.stripe(s)
		}
	} else {
		for s := 0; s < stripes; s++ {
			k.work <- s
		}
		for s := 0; s < stripes; s++ {
			<-k.done
		}
	}
	if k.phase != fusedPhaseFinish {
		k.win.endPass()
	}
}

// stripe runs stripe s of the current phase, telling the release window
// of a slab-backed operand which entries a matrix-touching phase is about
// to read and which it has finished with.
func (k *fusedKernel[F]) stripe(s int) {
	if k.win == nil || k.phase == fusedPhaseFinish {
		k.runStripe(s)
		return
	}
	lo, hi := k.mat.RowPtr[k.bounds[s]], k.mat.RowPtr[k.bounds[s+1]]
	k.win.begin(hi)
	k.runStripe(s)
	k.win.done(lo, hi)
}

// rowSums leaves the dot product of row i against src in sums[i] for each
// i in [lo, hi) — for a pair, of column j in sums[2i+j] — and returns
// sums. This is the kernel's one step written
// per value type, and each precision has one specialisation point of the
// same shape: a Go loop that defines the bits (rowSums64Go, rowSums32Go)
// and, on amd64 hosts with AVX2, an assembly kernel that computes the same
// ones. At float64 the sums are written straight into dst (the phase that
// asked turns dst[i] into the output element in place), so the float64
// kernel carries no accumulator array; at float32 they go into acc.
func (k *fusedKernel[F]) rowSums(lo, hi int) (sums []float64) {
	rowPtr, cols := k.mat.RowPtr, k.mat.Cols
	switch vals := any(k.mat.Vals).(type) {
	case []float64:
		sums, pass := any(k.dst).([]float64), rowSums64
		if k.cols == 2 {
			pass = rowSums64Pair
		}
		pass(rowPtr, vals, cols, any(k.src).([]float64), sums, lo, hi)
		return sums
	case []float32:
		sums = k.acc
		rowSums32(rowPtr, vals, cols, any(k.src).([]float32), sums, lo, hi)
	}
	return sums
}

// rowSums64Go is the portable float64 row-sum pass and the definition of
// its bits, which golden64_test.go pins: sums[i] is row i's products
// added one by one, in entry order, into a single running sum that starts
// at +0. Each product is rounded to float64 before it is added — the
// explicit conversion forbids the compiler the fused multiply-add the Go
// spec otherwise allows (and arm64, ppc64le, s390x and riscv64 take), so
// the hashes mean the same thing on every architecture. What is pinned is
// the order of the additions; how the products are formed is not, which
// is what lets rowSums64AVX gather and multiply four entries at a time
// and still add them in this order (rowsums64_amd64.s). This function is
// the reference the assembly is tested against, the fallback everywhere
// else, and — through its bounds checks — the place a corrupt operand
// panics on every path.
func rowSums64Go(rowPtr []int64, vals []float64, cols []int32, src, sums []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var sum float64
		for p, e := rowPtr[i], rowPtr[i+1]; p < e; p++ {
			sum += float64(vals[p] * src[cols[p]])
		}
		sums[i] = sum
	}
}

// rowSums64PairGo is rowSums64Go over two interleaved columns and the
// definition of the pair pass's bits: sums[2i+j] is row i's products
// against column j (src[2c+j] for column c) added one by one, in entry
// order, into column j's own running sum — the sum rowSums64Go forms
// over that column alone, so each lane is bitwise its solo pass.
func rowSums64PairGo(rowPtr []int64, vals []float64, cols []int32, src, sums []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var s0, s1 float64
		for p, e := rowPtr[i], rowPtr[i+1]; p < e; p++ {
			v, c := vals[p], 2*int64(cols[p]) // int64: 2c cannot wrap on 32-bit hosts
			s0 += float64(v * src[c])
			s1 += float64(v * src[c+1])
		}
		sums[2*i], sums[2*i+1] = s0, s1
	}
}

// rowSums32Go is the portable float32 row-sum pass and the definition of
// its summation scheme: acc[i] gets row i's float64 dot product against
// src through four independent accumulation lanes combined in a fixed
// pairing — entry p of the row feeds lane p mod 4 in the unrolled body,
// the tail (fewer than four remaining entries) feeds lane 0, and the
// result is (s0+s1)+(s2+s3). The lane assignment is a function of entry
// order alone — never of worker count — so outputs stay bitwise
// worker-invariant. The independent lanes break the single addition
// dependency chain, which the float64 sum cannot do: there the order of
// the additions is pinned bit for bit by golden hashes, and only the
// products are free to be formed four at a time. As in rowSums64Go, every
// product is explicitly rounded before it is added, so no architecture
// fuses it. On amd64 hosts with AVX2 the assembly kernel rowSums32AVX
// computes the identical bits with one four-wide
// gather/convert/multiply/add per lane group and one masked trip for the
// tail (rowsums32_amd64.s); this function is the reference it is tested
// against, the fallback everywhere else and, as rowSums64Go is at float64,
// the place a corrupt operand panics on every path.
func rowSums32Go(rowPtr []int64, vals []float32, cols []int32, src []float32, acc []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		p, e := rowPtr[i], rowPtr[i+1]
		var s0, s1, s2, s3 float64
		for ; p+4 <= e; p += 4 {
			s0 += float64(float64(vals[p]) * float64(src[cols[p]]))
			s1 += float64(float64(vals[p+1]) * float64(src[cols[p+1]]))
			s2 += float64(float64(vals[p+2]) * float64(src[cols[p+2]]))
			s3 += float64(float64(vals[p+3]) * float64(src[cols[p+3]]))
		}
		for ; p < e; p++ {
			s0 += float64(float64(vals[p]) * float64(src[cols[p]]))
		}
		acc[i] = (s0 + s1) + (s2 + s3)
	}
}

// runStripe computes stripe s of the current phase. Every output element
// is rounded to F exactly once, by the F(...) conversion that stores it
// (the identity at float64); every sum around it is float64.
func (k *fusedKernel[F]) runStripe(s int) {
	lo, hi := k.bounds[s], k.bounds[s+1]
	src, dst, cols := k.src, k.dst, k.cols
	l1 := k.norm == ResidualL1
	switch k.phase {
	case fusedPhaseMul:
		c, sums := k.c, k.rowSums(lo, hi)
		for i := lo; i < hi; i++ {
			dst[i] = F(sums[i] * c)
		}
		return
	case fusedPhaseFinish:
		// With the uniform teleport, lost·uniform once equals lost·t[i]
		// per element for a materialized uniform t: identical operands,
		// identical bits.
		t, lost := k.aux, k.lost
		add, r := lost*k.uniform, 0.0
		for i := lo; i < hi; i++ {
			if t != nil {
				add = lost * float64(t[i])
			}
			v := F(float64(dst[i]) + add)
			dst[i] = v
			r += residualTerm(float64(v)-float64(src[i]), l1)
		}
		k.partial[s] = r
	case fusedPhaseAffine:
		// Column j is elements cols·i+j and writes partial slot
		// j·stripes+s; at cols = 1 that is element i and slot s.
		c, sums := k.c, k.rowSums(lo, hi)
		for j := 0; j < cols; j++ {
			b, r := [2][]F{k.aux, k.aux2}[j], 0.0
			for i, p := lo, lo*cols+j; i < hi; i, p = i+1, p+cols {
				v := F(sums[p]*c + float64(b[i]))
				dst[p] = v
				r += residualTerm(float64(v)-float64(src[p]), l1)
			}
			k.partial[j*(len(k.bounds)-1)+s] = r
		}
	}
}

// residualTerm is one element's contribution to the residual partial.
func residualTerm(d float64, l1 bool) float64 {
	if l1 {
		return math.Abs(d)
	}
	return d * d
}

// reduceResidual combines column j's per-stripe partials with a
// fixed-pairing tree reduce — (0,1)(2,3) → (0,2) → … — so the summation
// order never depends on scheduling, worker count or the other column,
// then applies the norm's final map. It mutates k.partial (rewritten by
// the next residual pass).
func (k *fusedKernel[F]) reduceResidual(j int) float64 {
	stripes := len(k.bounds) - 1
	p := k.partial[j*stripes : (j+1)*stripes]
	for stride := 1; stride < len(p); stride *= 2 {
		for i := 0; i+stride < len(p); i += 2 * stride {
			p[i] += p[i+stride]
		}
	}
	r := p[0]
	if k.norm == ResidualL2 {
		r = math.Sqrt(r)
	}
	return r
}

// step advances one iteration from src into dst, returning ‖dst−src‖ in
// the kernel's norm.
func (k *fusedKernel[F]) step(dst, src []F) float64 {
	k.sweep(dst, src)
	return k.reduceResidual(0)
}

// sweep advances every column one iteration from src into dst and leaves
// each column's residual partials for reduceResidual.
func (k *fusedKernel[F]) sweep(dst, src []F) {
	if n := k.cols * k.mat.Rows; len(src) != n || len(dst) != n {
		panic(fmt.Sprintf("linalg: step of %d rows × %d columns: src has %d entries, dst %d", k.mat.Rows, k.cols, len(src), len(dst)))
	}
	k.src, k.dst = src, dst
	if k.affine {
		k.phase = fusedPhaseAffine
		k.dispatch()
		return
	}
	k.phase = fusedPhaseMul
	k.dispatch()
	// The lost-mass sum runs serially in index order: it is O(rows) next
	// to the O(nnz) stripe passes, and folding it front to back keeps
	// `lost` — and with it every dst bit — identical to the unfused path.
	var sum float64
	for _, v := range dst {
		sum += float64(v)
	}
	k.lost = max(1-sum, 0)
	k.phase = fusedPhaseFinish
	k.dispatch()
}

// Close releases the worker pool. Calling step after Close falls back to
// the serial path; Close is idempotent.
func (k *fusedKernel[F]) Close() {
	if k.work != nil {
		close(k.work)
		k.work = nil
	}
}

// FusedPower is the fused damped power-method iteration kernel: one Step
// computes dst = c·(pt·src) + lost·t, where lost = max(0, 1 − ‖c·pt·src‖₁)
// is the mass lost to damping and dangling rows, and the residual
// ‖dst−src‖ in the configured norm — all in two parallel stripe
// passes plus one serial index-order sum. At float64 the iterate bits are
// identical to the unfused product + Scale + sum + axpy sequence
// at every worker count; at either precision the iterate and the residual
// are bitwise invariant across worker counts (the residual may differ
// from a serial full-vector norm in the last ulp, since float addition is
// not associative).
//
// A kernel holds a persistent worker pool; Close it when the solve
// finishes. Step allocates nothing.
type FusedPower[F Float] struct{ k *fusedKernel[F] }

// NewFusedPower builds a fused power kernel for the chain with
// pre-transposed operand pt, damping c, and teleport distribution t. A
// nil t is the uniform distribution, held implicitly as a scalar instead
// of a dense vector: Step output is bitwise identical to the kernel built
// with a materialized uniform t, with one fewer dense vector resident —
// the margin that lets a slab-backed PageRank solve fit a residency cap
// of two iterate vectors (see PowerMethodTUniform and DESIGN.md §14).
func NewFusedPower[F Float](pt *Matrix[F], c float64, t []F, norm ResidualNorm, workers int) (*FusedPower[F], error) {
	k, err := newFusedKernel(pt, c, t, false, norm, workers)
	if err != nil {
		return nil, err
	}
	return &FusedPower[F]{k: k}, nil
}

// Step advances one iteration, dst ← c·(pt·src) + lost·t, and returns
// ‖dst−src‖ in the kernel's norm. dst and src must not alias and must
// each have pt.Rows entries.
func (f *FusedPower[F]) Step(dst, src []F) float64 {
	return f.k.step(dst, src)
}

// Close releases the kernel's worker pool.
func (f *FusedPower[F]) Close() { f.k.Close() }

// widen returns x as a float64 Vector: x itself at float64, an exact
// entrywise widening at float32.
func widen[F Float](x []F) Vector {
	switch x := any(x).(type) {
	case []float64:
		return x
	case []float32:
		return Vector32(x).Vector()
	}
	return nil
}

// iterateFused drives a one-column kernel to convergence from cur (see
// iterateCols) and returns its iterate and stats.
func iterateFused[F Float](k *fusedKernel[F], cur []F, opt SolverOptions) (x Vector, st IterStats) {
	iterateCols(k, cur, opt, func(_ int, v Vector, s IterStats) { x, st = v, s })
	return x, st
}

// iterateCols drives a fused kernel to convergence from cur (columns
// interleaved), which it takes ownership of, ping-ponging with one vector
// allocated up front. Each column is handed to done — its index, its
// iterate widened to float64, its stats — once it converges or reaches
// MaxIter. When one column of a pair finishes first, the other moves to a
// vector of its own and continues on the solo path with its own bias: a
// step is a pure function of its source, so no bit of it moves. At
// float32, tolerances below Float32Tol are clamped up to it.
func iterateCols[F Float](k *fusedKernel[F], cur []F, opt SolverOptions, done func(col int, x Vector, st IterStats)) {
	opt = opt.withDefaults()
	if precisionOf[F]() == Float32 {
		opt.Tol = max(opt.Tol, Float32Tol)
	}
	next := make([]F, len(cur))
	ids := [2]int{0, 1} // the caller's index of each column in the sweep
	for it := 1; ; it++ {
		k.sweep(next, cur)
		cur, next = next, cur
		var st [2]IterStats
		for j := range k.cols {
			st[j] = IterStats{Iterations: it, Residual: k.reduceResidual(j)}
		}
		live, keep := 0, 0
		for j := range k.cols {
			switch st[j].Converged = st[j].Residual < opt.Tol; {
			case !st[j].Converged && it < opt.MaxIter:
				live, keep = live+1, j
			case k.cols == 1:
				done(ids[j], widen(cur), st[j])
			default:
				done(ids[j], widen(column(cur, j)), st[j])
			}
		}
		if live == 0 {
			return
		}
		if live < k.cols {
			k.aux = [2][]F{k.aux, k.aux2}[keep] // the survivor's bias
			cur, next, k.cols, ids[0] = column(cur, keep), next[:len(cur)/2], 1, ids[keep]
		}
	}
}

// column returns column j of the interleaved pair x as a vector of its own.
func column[F Float](x []F, j int) []F {
	c := make([]F, len(x)/2)
	for i := range c {
		c[i] = x[2*i+j]
	}
	return c
}

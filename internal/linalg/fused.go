package linalg

import (
	"math"
	"runtime"
	"unsafe"
)

// This file implements the fused iteration kernel behind the ranking
// solvers, once, for both value types. One solver iteration used to make
// 4–5 separate passes over the score vector (SpMV, scale, lost-mass sum,
// teleport add, residual norm); the kernel collapses them into two
// parallel stripe passes (one for the affine form) plus a cheap serial
// reduction, with zero per-iteration allocation.
//
// Determinism contract: the stripe structure is a function of the matrix
// alone (never the worker count), every row accumulates in a fixed order,
// and the per-stripe residual partials are combined by a fixed-pairing
// tree reduce (reduceResidual) — so kernel output and residual are
// bitwise identical at every worker count. At float64 the
// iterate update additionally reproduces the exact floating-point
// operation sequence of the unfused MulVecParallel + Scale + index-order
// sum + axpy path (fused_test.go keeps that sequence as its oracle).
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
	fusedPhaseAffine        // dst[i] = c·(row i of at)·src + b[i], residual partials
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

	// win, when non-nil, is told the entry range of each stripe a
	// matrix-touching phase starts on and finishes, and when the pass
	// ends; slab-backed operands under a residency budget use it to drop
	// consumed Cols/Vals pages a window at a time (see releaseWindow).
	// Releasing is a pure residency hint and never changes computed bits.
	win *releaseWindow

	bounds  []int     // stripe row boundaries, len(partial)+1
	partial []float64 // per-stripe residual partials
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
	stripes := len(k.partial)
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
// i in [lo, hi) and returns sums. This is the kernel's one step written
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
		sums = any(k.dst).([]float64)
		rowSums64(rowPtr, vals, cols, any(k.src).([]float64), sums, lo, hi)
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
// gather/convert/multiply/add per lane group (rowsums32_amd64.s); this
// function is the reference it is tested against and the fallback
// everywhere else.
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
	src, dst := k.src, k.dst
	l1 := k.norm == ResidualL1
	var r float64
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
		t, lost, add := k.aux, k.lost, k.lost*k.uniform
		for i := lo; i < hi; i++ {
			if t != nil {
				add = lost * float64(t[i])
			}
			v := F(float64(dst[i]) + add)
			dst[i] = v
			r += residualTerm(float64(v)-float64(src[i]), l1)
		}
	case fusedPhaseAffine:
		c, b, sums := k.c, k.aux, k.rowSums(lo, hi)
		for i := lo; i < hi; i++ {
			v := F(sums[i]*c + float64(b[i]))
			dst[i] = v
			r += residualTerm(float64(v)-float64(src[i]), l1)
		}
	}
	k.partial[s] = r
}

// residualTerm is one element's contribution to the residual partial.
func residualTerm(d float64, l1 bool) float64 {
	if l1 {
		return math.Abs(d)
	}
	return d * d
}

// reduceResidual combines the per-stripe partials with a fixed-pairing
// tree reduce — (0,1)(2,3) → (0,2) → … — so the summation order never
// depends on scheduling or worker count, then applies the norm's final
// map. It mutates k.partial (rewritten by the next residual pass).
func (k *fusedKernel[F]) reduceResidual() float64 {
	p := k.partial
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
	checkMulDims(k.mat, src, dst)
	k.src, k.dst = src, dst
	if k.affine {
		k.phase = fusedPhaseAffine
		k.dispatch()
	} else {
		k.phase = fusedPhaseMul
		k.dispatch()
		// The lost-mass sum runs serially in index order: it is O(rows)
		// next to the O(nnz) stripe passes, and folding it front to back
		// keeps `lost` — and with it every dst bit — identical to the
		// unfused path.
		var sum float64
		for _, v := range dst {
			sum += float64(v)
		}
		k.lost = max(1-sum, 0)
		k.phase = fusedPhaseFinish
		k.dispatch()
	}
	return k.reduceResidual()
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
// identical to the unfused MulVecParallel + Scale + sum + axpy sequence
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

// iterateFused drives a fused kernel to convergence with ping-pong
// buffers: cur is the starting iterate, which the driver takes ownership
// of, a second vector is allocated up front and the two are swapped every
// iteration, so the loop itself performs zero allocations. The converged
// iterate is returned widened to float64, so downstream ranking code is
// precision-agnostic.
//
// Two options differ at float32: tolerances below Float32Tol are clamped
// up to it, and a Progress callback — which observes float64 iterates the
// float32 kernel never materializes — is rejected with ErrFloat32Solver.
func iterateFused[F Float](k *fusedKernel[F], cur []F, opt SolverOptions) (Vector, IterStats, error) {
	opt = opt.withDefaults()
	if precisionOf[F]() == Float32 {
		if opt.Progress != nil {
			return nil, IterStats{}, ErrFloat32Solver
		}
		opt.Tol = max(opt.Tol, Float32Tol)
	}
	next := make([]F, len(cur))
	var st IterStats
	for st.Iterations = 1; st.Iterations <= opt.MaxIter; st.Iterations++ {
		st.Residual = k.step(next, cur)
		cur, next = next, cur
		if opt.Progress != nil {
			if err := opt.Progress(st.Iterations, widen(cur)); err != nil {
				return widen(cur), st, err
			}
		}
		if st.Residual < opt.Tol {
			st.Converged = true
			return widen(cur), st, nil
		}
	}
	st.Iterations = opt.MaxIter
	return widen(cur), st, nil
}

package linalg

import (
	"math"
	"runtime"
)

// This file implements the float32 mirrors of the fused iteration
// kernels. The solver inner loop is memory-bandwidth-bound: at zero
// allocations per iteration, wall time tracks the bytes of CSR arrays
// and vectors streamed through the memory hierarchy, so storing the
// matrix values, iterate, and teleport/bias at half width roughly
// doubles Step throughput (see cmd/bench -mode bandwidth). Precision is
// spent only on storage, never on summation: every reduction — per-row
// dot products, the lost-mass sum, the convergence residual — is
// accumulated in float64 and rounded to float32 exactly once per output
// element.
//
// Determinism contract, mirroring fused.go: the stripe partition and the
// cache-blocked entry layout (csr32.go) are functions of the matrix
// alone, never the worker count; each entry segment accumulates through
// the fixed four-lane scheme of dotRow32 in layout order; and the
// per-stripe residual partials merge through the same fixed-pairing tree
// reduce — so kernel output and residual are bitwise identical at every
// worker count. There is no bitwise
// relationship to the float64 kernels; rank-order fidelity between the
// two precisions is certified end to end by internal/rankeval (see
// internal/core's precision tests and DESIGN.md §13).

// fusedKernel32 is the float32 counterpart of fusedKernel: matrix-derived
// stripes, a persistent worker pool, per-pass state handed through struct
// fields ordered by the channel sends. When the operand is wider than one
// column block it additionally carries the cache-blocked layout and a
// float64 row-accumulator array (sliced per stripe, disjoint across
// stripes) that the blocked passes accumulate into.
type fusedKernel32 struct {
	mat  *CSR32
	blk  *csr32Blocked       // nil when src fits one column block
	sblk *csr32StripeBlocker // streamed blocked path for slab-backed operands
	c    float64
	aux  Vector32 // teleport t (power) or bias b (affine); nil when auxUniform
	norm ResidualNorm

	// auxUniform mirrors fusedKernel.auxUniform: the teleport is held
	// implicitly as auxVal = float64(float32(1/Rows)) — the uniform value
	// narrowed to storage precision exactly as ToVector32 would store it,
	// then widened once — instead of a dense Vector32. lost·auxVal
	// computes the same bits as lost·float64(t[i]) for a materialized
	// uniform t32, so the uniform kernel is bitwise identical to the
	// explicit one while keeping one fewer dense vector resident.
	auxUniform bool
	auxVal     float64

	// win mirrors fusedKernel.win: the slab release window, told of each
	// stripe a matrix-touching phase starts on and finishes. Slab-backed
	// float32 operands regroup each stripe into scratch before the run
	// loop (csr32StripeBlocker), so a report always covers the pages the
	// stripe actually touched.
	win *releaseWindow

	// scratch is the serial path's regroup buffer when sblk is active;
	// pool workers own their own.
	scratch *csr32StripeScratch

	bounds  []int     // stripe row boundaries, len(partial)+1
	partial []float64 // per-stripe residual partials
	acc     []float64 // len Rows; float64 row sums of the multiply pass

	// Per-pass state, written by the coordinator between dispatches.
	src, dst Vector32
	lost     float64
	phase    int
	wantRes  bool

	work chan int      // stripe indices; nil when running serially
	done chan struct{} // one token per completed stripe
}

func newFusedKernel32(mat *CSR32, c float64, aux Vector32, norm ResidualNorm, workers int) *fusedKernel32 {
	stripes := stripeCountFor(mat.NNZ(), mat.Rows)
	bounds := partitionPtrByNNZ(mat.RowPtr, mat.Rows, stripes)
	// Resident next to the matrix: acc, the driver's two iterates and the
	// float64 vector its result is widened into, plus aux.
	dense := (8 + 2*4 + 8) * int64(mat.Rows)
	if aux != nil {
		dense += 4 * int64(mat.Rows)
	}
	k := &fusedKernel32{
		mat:     mat,
		blk:     buildCSR32Blocked(mat, bounds),
		c:       c,
		aux:     aux,
		norm:    norm,
		win:     mat.res.newWindow(dense),
		bounds:  bounds,
		partial: make([]float64, stripes),
		acc:     make([]float64, mat.Rows),
	}
	if mat.res != nil {
		// The slab path cannot hold a whole-matrix blocked layout; gate
		// the streamed per-stripe regroup with the identical decision
		// rule, shedding the gate scan's pages as it goes.
		k.sblk = newCSR32StripeBlocker(mat, bounds, k.win)
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
	return k
}

func (k *fusedKernel32) worker(work <-chan int) {
	var sc *csr32StripeScratch
	if k.sblk != nil {
		sc = k.sblk.newScratch()
	}
	for s := range work {
		k.stripe(s, sc)
		k.done <- struct{}{}
	}
}

// dispatch runs every stripe of the current phase, on the pool when one
// exists and inline otherwise; each stripe writes a disjoint dst range,
// a disjoint acc range, and its own partial slot, so both orders produce
// identical bits.
func (k *fusedKernel32) dispatch() {
	stripes := len(k.partial)
	if k.work == nil {
		if k.sblk != nil && k.scratch == nil {
			k.scratch = k.sblk.newScratch()
		}
		for s := 0; s < stripes; s++ {
			k.stripe(s, k.scratch)
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

// mulStripe computes the stripe's slice of y = mat·src into the float64
// row accumulators (blocked path) or directly per row (row-major path),
// leaving acc[i] = row i's full dot product for i in [lo, hi). The
// row-major path returns results through the same accumulator-free
// contract by calling emit per row instead; to keep the hot loops free
// of indirect calls the two layouts are inlined into each phase below.

// dotRow32 computes one entry segment's dot product against src with four
// independent float64 accumulation lanes combined in a fixed pairing:
// entry p of the segment feeds lane p mod 4 in the unrolled body, the
// tail (fewer than four remaining entries) feeds lane 0, and the result
// is (s0+s1)+(s2+s3). The lane assignment is a function of entry order
// alone — never of worker count — so outputs stay bitwise
// worker-invariant. The independent lanes break the single addition
// dependency chain and keep several src gathers in flight, which is a
// large part of the float32 path's throughput edge: the float64 kernel's
// strictly sequential summation order is pinned bit-for-bit by golden
// hashes and cannot adopt the same unrolling.
func dotRow32(vals []float32, cols []int32, src Vector32) float64 {
	var s0, s1, s2, s3 float64
	p := 0
	for ; p+4 <= len(vals); p += 4 {
		s0 += float64(vals[p]) * float64(src[cols[p]])
		s1 += float64(vals[p+1]) * float64(src[cols[p+1]])
		s2 += float64(vals[p+2]) * float64(src[cols[p+2]])
		s3 += float64(vals[p+3]) * float64(src[cols[p+3]])
	}
	for ; p < len(vals); p++ {
		s0 += float64(vals[p]) * float64(src[cols[p]])
	}
	return (s0 + s1) + (s2 + s3)
}

// rowSums32Go is the portable row-sum pass: acc[i] gets row i's four-lane
// float64 dot product against src for each i in [lo, hi). On amd64 hosts
// with AVX2 the assembly kernel rowSums32AVX computes the identical bits
// with one four-wide gather/convert/multiply/add per lane group
// (rowsums32_amd64.s); this function is the reference it is tested
// against, the fallback everywhere else, and the definition of the
// summation scheme.
func rowSums32Go(rowPtr []int64, vals []float32, cols []int32, src []float32, acc []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		p, e := rowPtr[i], rowPtr[i+1]
		var s0, s1, s2, s3 float64
		for ; p+4 <= e; p += 4 {
			s0 += float64(vals[p]) * float64(src[cols[p]])
			s1 += float64(vals[p+1]) * float64(src[cols[p+1]])
			s2 += float64(vals[p+2]) * float64(src[cols[p+2]])
			s3 += float64(vals[p+3]) * float64(src[cols[p+3]])
		}
		for ; p < e; p++ {
			s0 += float64(vals[p]) * float64(src[cols[p]])
		}
		acc[i] = (s0 + s1) + (s2 + s3)
	}
}

// stripe mirrors fusedKernel.stripe: runStripe between the release
// window's begin and done reports.
func (k *fusedKernel32) stripe(s int, sc *csr32StripeScratch) {
	if k.win == nil || k.phase == fusedPhaseFinish {
		k.runStripe(s, sc)
		return
	}
	lo, hi := k.mat.RowPtr[k.bounds[s]], k.mat.RowPtr[k.bounds[s+1]]
	k.win.begin(hi)
	k.runStripe(s, sc)
	k.win.done(lo, hi)
}

func (k *fusedKernel32) runStripe(s int, sc *csr32StripeScratch) {
	lo, hi := k.bounds[s], k.bounds[s+1]
	m, src, dst := k.mat, k.src, k.dst
	switch k.phase {
	case fusedPhaseMul:
		c, acc := k.c, k.acc
		switch {
		case k.blk != nil:
			blk := k.blk
			for i := lo; i < hi; i++ {
				acc[i] = 0
			}
			for r := blk.stripeRun[s]; r < blk.stripeRun[s+1]; r++ {
				a, b := blk.runPtr[r], blk.runPtr[r+1]
				acc[blk.runRow[r]] += dotRow32(blk.vals[a:b], blk.cols[a:b], src)
			}
		case k.sblk != nil:
			k.sblk.blockStripe(m, lo, hi, sc)
			for i := lo; i < hi; i++ {
				acc[i] = 0
			}
			for r := 0; r+1 < len(sc.runPtr); r++ {
				a, b := sc.runPtr[r], sc.runPtr[r+1]
				acc[sc.runRow[r]] += dotRow32(sc.vals[a:b], sc.cols[a:b], src)
			}
		default:
			rowSums32(m, src, acc, lo, hi)
		}
		for i := lo; i < hi; i++ {
			dst[i] = float32(acc[i] * c)
		}
	case fusedPhaseFinish:
		lost := k.lost
		if k.auxUniform {
			// lost·auxVal once equals lost·float64(t[i]) per element for a
			// materialized uniform t32: identical operands, identical bits.
			add := lost * k.auxVal
			if !k.wantRes {
				for i := lo; i < hi; i++ {
					dst[i] = float32(float64(dst[i]) + add)
				}
				return
			}
			var r float64
			if k.norm == ResidualL1 {
				for i := lo; i < hi; i++ {
					v := float32(float64(dst[i]) + add)
					dst[i] = v
					r += math.Abs(float64(v) - float64(src[i]))
				}
			} else {
				for i := lo; i < hi; i++ {
					v := float32(float64(dst[i]) + add)
					dst[i] = v
					d := float64(v) - float64(src[i])
					r += d * d
				}
			}
			k.partial[s] = r
			return
		}
		t := k.aux
		if !k.wantRes {
			for i := lo; i < hi; i++ {
				dst[i] = float32(float64(dst[i]) + lost*float64(t[i]))
			}
			return
		}
		var r float64
		if k.norm == ResidualL1 {
			for i := lo; i < hi; i++ {
				v := float32(float64(dst[i]) + lost*float64(t[i]))
				dst[i] = v
				r += math.Abs(float64(v) - float64(src[i]))
			}
		} else {
			for i := lo; i < hi; i++ {
				v := float32(float64(dst[i]) + lost*float64(t[i]))
				dst[i] = v
				d := float64(v) - float64(src[i])
				r += d * d
			}
		}
		k.partial[s] = r
	case fusedPhaseAffine:
		c, bias, acc := k.c, k.aux, k.acc
		switch {
		case k.blk != nil:
			blk := k.blk
			for i := lo; i < hi; i++ {
				acc[i] = 0
			}
			for rr := blk.stripeRun[s]; rr < blk.stripeRun[s+1]; rr++ {
				a, e := blk.runPtr[rr], blk.runPtr[rr+1]
				acc[blk.runRow[rr]] += dotRow32(blk.vals[a:e], blk.cols[a:e], src)
			}
		case k.sblk != nil:
			k.sblk.blockStripe(m, lo, hi, sc)
			for i := lo; i < hi; i++ {
				acc[i] = 0
			}
			for rr := 0; rr+1 < len(sc.runPtr); rr++ {
				a, e := sc.runPtr[rr], sc.runPtr[rr+1]
				acc[sc.runRow[rr]] += dotRow32(sc.vals[a:e], sc.cols[a:e], src)
			}
		default:
			rowSums32(m, src, acc, lo, hi)
		}
		var r float64
		for i := lo; i < hi; i++ {
			v := float32(acc[i]*c + float64(bias[i]))
			dst[i] = v
			if k.wantRes {
				if k.norm == ResidualL1 {
					r += math.Abs(float64(v) - float64(src[i]))
				} else {
					d := float64(v) - float64(src[i])
					r += d * d
				}
			}
		}
		if k.wantRes {
			k.partial[s] = r
		}
	}
}

// Close releases the worker pool. Calling Step after Close falls back to
// the serial path; Close is idempotent.
func (k *fusedKernel32) Close() {
	if k.work != nil {
		close(k.work)
		k.work = nil
	}
}

func checkMulDims32(m *CSR32, x, dst Vector32) {
	if len(x) != m.ColsN || len(dst) != m.Rows {
		panic("linalg: float32 kernel operand length mismatch")
	}
}

// FusedPower32 is the float32 fused damped power-method kernel: one Step
// computes dst = c·(pt·src) + lost·t with lost = max(0, 1 − Σ c·pt·src)
// and (optionally) the residual ‖dst−src‖, storing every operand at
// float32 while accumulating every sum in float64. Step allocates
// nothing; results are bitwise invariant across worker counts. On
// matrices wider than one cache block the multiply pass runs over the
// cache-blocked layout (csr32.go).
type FusedPower32 struct{ k *fusedKernel32 }

// NewFusedPower32 builds the kernel for the chain with pre-transposed
// float32 operand pt, damping c, and teleport distribution t.
func NewFusedPower32(pt *CSR32, c float64, t Vector32, norm ResidualNorm, workers int) (*FusedPower32, error) {
	if pt.Rows != pt.ColsN || len(t) != pt.Rows {
		return nil, ErrDimension
	}
	return &FusedPower32{k: newFusedKernel32(pt, c, t, norm, workers)}, nil
}

// NewFusedPower32Uniform builds a float32 fused power kernel whose
// teleport is the uniform distribution held implicitly as the scalar
// float64(float32(1/Rows)) instead of a dense Vector32 — the float32
// mirror of NewFusedPowerUniform. Step output is bitwise identical to
// NewFusedPower32 with a teleport of ToVector32(NewUniformVector(Rows))
// at every worker count, but the kernel keeps one fewer dense vector
// resident — on slab-backed solves the dense vectors are the entire
// heap-side footprint, so this is the margin that lets the float32
// out-of-core solve fit the same residency cap as the float64 one (see
// PowerMethodT32Uniform and cmd/bench -mode outofcore).
func NewFusedPower32Uniform(pt *CSR32, c float64, norm ResidualNorm, workers int) (*FusedPower32, error) {
	if pt.Rows != pt.ColsN || pt.Rows == 0 {
		return nil, ErrDimension
	}
	k := newFusedKernel32(pt, c, nil, norm, workers)
	k.auxUniform = true
	k.auxVal = float64(float32(1 / float64(pt.Rows)))
	return &FusedPower32{k: k}, nil
}

// Step advances one iteration: dst ← c·(pt·src) + lost·t, returning
// ‖dst−src‖ in the kernel's norm when wantResidual is set and NaN
// otherwise. dst and src must not alias and must each have pt.Rows
// entries.
func (f *FusedPower32) Step(dst, src Vector32, wantResidual bool) float64 {
	k := f.k
	checkMulDims32(k.mat, src, dst)
	k.src, k.dst, k.wantRes = src, dst, wantResidual
	k.phase = fusedPhaseMul
	k.dispatch()
	// Lost-mass sum: serial, index order, float64 accumulation — O(rows)
	// next to the O(nnz) stripe passes.
	var sum float64
	for _, v := range dst {
		sum += float64(v)
	}
	lost := 1 - sum
	if lost < 0 {
		lost = 0
	}
	k.lost = lost
	k.phase = fusedPhaseFinish
	k.dispatch()
	if !wantResidual {
		return math.NaN()
	}
	return reducePartials(k.partial, k.norm)
}

// Close releases the kernel's worker pool.
func (f *FusedPower32) Close() { f.k.Close() }

// FusedAffine32 is the float32 fused Jacobi kernel for x = c·Aᵀx + b:
// one Step computes dst = c·(at·src) + b and (optionally) the residual in
// a single parallel stripe pass. Same storage/accumulation split and
// determinism contract as FusedPower32.
type FusedAffine32 struct{ k *fusedKernel32 }

// NewFusedAffine32 builds the kernel over the pre-transposed float32
// operand at (= Aᵀ) and bias b.
func NewFusedAffine32(at *CSR32, c float64, b Vector32, norm ResidualNorm, workers int) (*FusedAffine32, error) {
	if at.Rows != at.ColsN || len(b) != at.Rows {
		return nil, ErrDimension
	}
	return &FusedAffine32{k: newFusedKernel32(at, c, b, norm, workers)}, nil
}

// Step advances one iteration: dst ← c·(at·src) + b, returning the
// residual when wantResidual is set and NaN otherwise.
func (f *FusedAffine32) Step(dst, src Vector32, wantResidual bool) float64 {
	k := f.k
	checkMulDims32(k.mat, src, dst)
	k.src, k.dst, k.wantRes = src, dst, wantResidual
	k.phase = fusedPhaseAffine
	k.dispatch()
	if !wantResidual {
		return math.NaN()
	}
	return reducePartials(k.partial, k.norm)
}

// Close releases the kernel's worker pool.
func (f *FusedAffine32) Close() { f.k.Close() }

// stepKernel32 is the iteration contract the float32 drivers share.
type stepKernel32 interface {
	Step(dst, src Vector32, wantResidual bool) float64
}

// iterateFused32 drives a float32 kernel to convergence with ping-pong
// buffers, mirroring iterateFused's iterate/check/stop ordering. The
// float32 solvers reject Progress up front (solver32.go), so no callback
// runs here.
func iterateFused32(k stepKernel32, x0 Vector32, opt SolverOptions) (Vector32, IterStats) {
	return iterateFused32Owned(k, x0.Clone(), opt)
}

// iterateFused32Owned is iterateFused32 taking ownership of cur as the
// starting iterate instead of cloning it, mirroring iterateFusedOwned:
// callers that construct the start vector themselves
// (PowerMethodT32Uniform filling a uniform x0) use it to avoid a third
// transient full-length vector.
func iterateFused32Owned(k stepKernel32, cur Vector32, opt SolverOptions) (Vector32, IterStats) {
	opt = opt.withDefaults()
	check := opt.checkEvery()
	next := NewVector32(len(cur))
	var st IterStats
	for st.Iterations = 1; st.Iterations <= opt.MaxIter; st.Iterations++ {
		wantRes := st.Iterations%check == 0 || st.Iterations == opt.MaxIter
		res := k.Step(next, cur, wantRes)
		if wantRes {
			st.Residual = res
		}
		cur, next = next, cur
		if wantRes && st.Residual < opt.Tol {
			st.Converged = true
			return cur, st
		}
	}
	st.Iterations = opt.MaxIter
	return cur, st
}

package linalg

import (
	"math"
	"runtime"
)

// This file implements the fused iteration kernels behind the ranking
// solvers. One solver iteration used to make 4–5 separate passes over
// the score vector (SpMV, scale, lost-mass sum, teleport add, residual
// norm); the fused kernels collapse them into two parallel stripe passes
// (one for the affine form) plus a cheap serial reduction, with zero
// per-iteration allocation.
//
// Determinism contract: the stripe structure is a function of the matrix
// alone (never the worker count), every stripe accumulates sequentially,
// and the per-stripe residual partials are combined by the same
// fixed-pairing tree reduce as MulTVecParallel — so kernel output and
// residual are bitwise identical at every worker count. The iterate
// update additionally reproduces the exact floating-point operation
// sequence of the unfused MulVecParallel + Scale + Sum + Axpy path, so
// rewiring the solvers onto the fused kernels changed no result bits.

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

// fusedStripeCount picks the number of row stripes for the fused
// kernels. Like mulTVecStripes it depends only on the matrix, never on
// the worker count, so the summation structure — and with it the
// residual, bit for bit — is identical for every worker count. Unlike
// MulTVecParallel there is no per-stripe accumulator vector — only one
// partial float — so stripes are cheap and the cap is generous.
func fusedStripeCount(m *CSR) int { return stripeCountFor(m.NNZ(), m.Rows) }

// stripeCountFor is fusedStripeCount on bare dimensions, shared with the
// float32 kernels so both precisions partition a given sparsity structure
// identically.
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

// fusedKernel is the shared machinery of FusedPower and FusedAffine: a
// matrix-derived stripe partition and a persistent worker pool. Workers
// are parked on a channel for the lifetime of the kernel, so repeated
// Step calls spawn no goroutines and allocate nothing — the per-pass
// state travels through struct fields, ordered by the channel sends
// (coordinator writes happen-before worker reads, worker writes
// happen-before the coordinator's done receive).
type fusedKernel struct {
	mat  *CSR
	c    float64
	aux  Vector // teleport t (power) or bias b (affine); nil when auxUniform
	norm ResidualNorm

	// auxUniform holds the teleport implicitly as the uniform value
	// auxVal = 1/Rows instead of a dense aux vector, saving one resident
	// vector — which matters on slab-backed solves where the dense
	// iterate vectors are the entire memory budget. lost·auxVal computes
	// the same bits as lost·t[i] for a materialized uniform t, so the
	// uniform kernel is bitwise identical to the explicit one.
	auxUniform bool
	auxVal     float64

	// win, when non-nil, is told the entry range of each stripe a
	// matrix-touching phase starts on and finishes, and when the pass
	// ends; slab-backed operands under a residency budget use it to drop
	// consumed Cols/Vals pages a window at a time (see releaseWindow).
	// Releasing is a pure residency hint and never changes computed bits.
	win *releaseWindow

	bounds  []int     // stripe row boundaries, len(partial)+1
	partial []float64 // per-stripe residual partials

	// Per-pass state, written by the coordinator between dispatches.
	src, dst Vector
	lost     float64
	phase    int
	wantRes  bool

	work chan int      // stripe indices; nil when running serially
	done chan struct{} // one token per completed stripe
}

func newFusedKernel(mat *CSR, c float64, aux Vector, norm ResidualNorm, workers int) *fusedKernel {
	stripes := fusedStripeCount(mat)
	// Resident next to the matrix: the driver's two iterates, plus aux.
	dense := 2 * 8 * int64(mat.Rows)
	if aux != nil {
		dense += 8 * int64(mat.Rows)
	}
	k := &fusedKernel{
		mat:     mat,
		c:       c,
		aux:     aux,
		norm:    norm,
		win:     mat.res.newWindow(dense),
		bounds:  partitionRowsByNNZ(mat, stripes),
		partial: make([]float64, stripes),
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

// worker drains stripe indices until the channel closes. The channel is
// passed in (not read from the struct field) so Close can nil the field
// without racing the range loop.
func (k *fusedKernel) worker(work <-chan int) {
	for s := range work {
		k.stripe(s)
		k.done <- struct{}{}
	}
}

// dispatch runs every stripe of the current phase, on the pool when one
// exists and inline otherwise. Both orders produce identical bits: each
// stripe writes a disjoint dst range and its own partial slot.
func (k *fusedKernel) dispatch() {
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
func (k *fusedKernel) stripe(s int) {
	if k.win == nil || k.phase == fusedPhaseFinish {
		k.runStripe(s)
		return
	}
	lo, hi := k.mat.RowPtr[k.bounds[s]], k.mat.RowPtr[k.bounds[s+1]]
	k.win.begin(hi)
	k.runStripe(s)
	k.win.done(lo, hi)
}

func (k *fusedKernel) runStripe(s int) {
	lo, hi := k.bounds[s], k.bounds[s+1]
	m, src, dst := k.mat, k.src, k.dst
	switch k.phase {
	case fusedPhaseMul:
		c := k.c
		for i := lo; i < hi; i++ {
			a, b := m.RowPtr[i], m.RowPtr[i+1]
			var sum float64
			for p := a; p < b; p++ {
				sum += m.Vals[p] * src[m.Cols[p]]
			}
			dst[i] = sum * c
		}
	case fusedPhaseFinish:
		lost := k.lost
		if k.auxUniform {
			// lost·auxVal once equals lost·t[i] per element for a
			// materialized uniform t: identical operands, identical bits.
			add := lost * k.auxVal
			if !k.wantRes {
				for i := lo; i < hi; i++ {
					dst[i] += add
				}
				return
			}
			var r float64
			if k.norm == ResidualL1 {
				for i := lo; i < hi; i++ {
					dst[i] += add
					r += math.Abs(dst[i] - src[i])
				}
			} else {
				for i := lo; i < hi; i++ {
					dst[i] += add
					d := dst[i] - src[i]
					r += d * d
				}
			}
			k.partial[s] = r
			return
		}
		t := k.aux
		if !k.wantRes {
			for i := lo; i < hi; i++ {
				dst[i] += lost * t[i]
			}
			return
		}
		var r float64
		if k.norm == ResidualL1 {
			for i := lo; i < hi; i++ {
				dst[i] += lost * t[i]
				r += math.Abs(dst[i] - src[i])
			}
		} else {
			for i := lo; i < hi; i++ {
				dst[i] += lost * t[i]
				d := dst[i] - src[i]
				r += d * d
			}
		}
		k.partial[s] = r
	case fusedPhaseAffine:
		c, b := k.c, k.aux
		if !k.wantRes {
			for i := lo; i < hi; i++ {
				a, e := m.RowPtr[i], m.RowPtr[i+1]
				var sum float64
				for p := a; p < e; p++ {
					sum += m.Vals[p] * src[m.Cols[p]]
				}
				v := sum * c
				v += b[i]
				dst[i] = v
			}
			return
		}
		var r float64
		for i := lo; i < hi; i++ {
			a, e := m.RowPtr[i], m.RowPtr[i+1]
			var sum float64
			for p := a; p < e; p++ {
				sum += m.Vals[p] * src[m.Cols[p]]
			}
			v := sum * c
			v += b[i]
			dst[i] = v
			if k.norm == ResidualL1 {
				r += math.Abs(v - src[i])
			} else {
				d := v - src[i]
				r += d * d
			}
		}
		k.partial[s] = r
	}
}

// reduceResidual combines the per-stripe partials with a fixed-pairing
// tree reduce — (0,1)(2,3) → (0,2) → … — so the summation order never
// depends on scheduling or worker count, then applies the norm's final
// map. It mutates k.partial (rewritten by the next residual pass).
func (k *fusedKernel) reduceResidual() float64 { return reducePartials(k.partial, k.norm) }

// reducePartials is the fixed-pairing tree reduce shared by the float64
// and float32 kernels; it mutates p.
func reducePartials(p []float64, norm ResidualNorm) float64 {
	for stride := 1; stride < len(p); stride *= 2 {
		for i := 0; i+stride < len(p); i += 2 * stride {
			p[i] += p[i+stride]
		}
	}
	r := p[0]
	if norm == ResidualL2 {
		r = math.Sqrt(r)
	}
	return r
}

// Close releases the worker pool. Calling Step after Close falls back to
// the serial path; Close is idempotent.
func (k *fusedKernel) Close() {
	if k.work != nil {
		close(k.work)
		k.work = nil
	}
}

// FusedPower is the fused damped power-method iteration kernel: one Step
// computes dst = c·(pt·src) + lost·t, where lost = max(0, 1 − ‖c·pt·src‖₁)
// is the mass lost to damping and dangling rows, and (optionally) the
// residual ‖dst−src‖ in the configured norm — all in two parallel stripe
// passes plus one serial index-order sum. The iterate bits are identical
// to the unfused MulVecParallel + Scale + Sum + Axpy sequence at every
// worker count; the residual is bitwise invariant across worker counts
// (it may differ from a serial full-vector norm in the last ulp, since
// float addition is not associative).
//
// A kernel holds a persistent worker pool; Close it when the solve
// finishes. Step allocates nothing.
type FusedPower struct{ k *fusedKernel }

// NewFusedPower builds a fused power kernel for the chain with
// pre-transposed operand pt, damping c, and teleport distribution t.
func NewFusedPower(pt *CSR, c float64, t Vector, norm ResidualNorm, workers int) (*FusedPower, error) {
	if pt.Rows != pt.ColsN || len(t) != pt.Rows {
		return nil, ErrDimension
	}
	return &FusedPower{k: newFusedKernel(pt, c, t, norm, workers)}, nil
}

// NewFusedPowerUniform builds a fused power kernel whose teleport is the
// uniform distribution held implicitly as the scalar 1/Rows instead of a
// dense vector. Step output is bitwise identical to NewFusedPower with a
// materialized uniform t at every worker count, but the kernel keeps one
// fewer dense vector resident — the margin that lets a slab-backed
// PageRank solve fit a residency cap of two iterate vectors (see
// PowerMethodTUniform and DESIGN.md §14).
func NewFusedPowerUniform(pt *CSR, c float64, norm ResidualNorm, workers int) (*FusedPower, error) {
	if pt.Rows != pt.ColsN || pt.Rows == 0 {
		return nil, ErrDimension
	}
	k := newFusedKernel(pt, c, nil, norm, workers)
	k.auxUniform = true
	k.auxVal = 1 / float64(pt.Rows)
	return &FusedPower{k: k}, nil
}

// Step advances one iteration: dst ← c·(pt·src) + lost·t. When
// wantResidual is set it returns ‖dst−src‖ in the kernel's norm;
// otherwise the residual passes are skipped entirely and Step returns
// NaN. dst and src must not alias and must each have pt.Rows entries.
func (f *FusedPower) Step(dst, src Vector, wantResidual bool) float64 {
	k := f.k
	checkMulDims(k.mat, src, dst)
	k.src, k.dst, k.wantRes = src, dst, wantResidual
	k.phase = fusedPhaseMul
	k.dispatch()
	// The lost-mass sum runs serially in index order: it is O(rows) next
	// to the O(nnz) stripe passes, and folding it exactly like
	// Vector.Sum keeps `lost` — and with it every dst bit — identical
	// to the unfused path.
	var sum float64
	for _, v := range dst {
		sum += v
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
	return k.reduceResidual()
}

// Close releases the kernel's worker pool.
func (f *FusedPower) Close() { f.k.Close() }

// FusedAffine is the fused Jacobi iteration kernel for the affine system
// x = c·Aᵀx + b: one Step computes dst = c·(at·src) + b and (optionally)
// the residual ‖dst−src‖ in a single parallel stripe pass. The same
// determinism contract as FusedPower applies.
type FusedAffine struct{ k *fusedKernel }

// NewFusedAffine builds a fused affine kernel over the pre-transposed
// operand at (= Aᵀ) and bias b.
func NewFusedAffine(at *CSR, c float64, b Vector, norm ResidualNorm, workers int) (*FusedAffine, error) {
	if at.Rows != at.ColsN || len(b) != at.Rows {
		return nil, ErrDimension
	}
	return &FusedAffine{k: newFusedKernel(at, c, b, norm, workers)}, nil
}

// Step advances one iteration: dst ← c·(at·src) + b, returning the
// residual when wantResidual is set and NaN otherwise.
func (f *FusedAffine) Step(dst, src Vector, wantResidual bool) float64 {
	k := f.k
	checkMulDims(k.mat, src, dst)
	k.src, k.dst, k.wantRes = src, dst, wantResidual
	k.phase = fusedPhaseAffine
	k.dispatch()
	if !wantResidual {
		return math.NaN()
	}
	return k.reduceResidual()
}

// Close releases the kernel's worker pool.
func (f *FusedAffine) Close() { f.k.Close() }

// stepKernel is the iteration contract the fused drivers share.
type stepKernel interface {
	Step(dst, src Vector, wantResidual bool) float64
}

// iterateFused drives a fused kernel to convergence with ping-pong
// buffers: two vectors are allocated up front and swapped every
// iteration, so the loop itself performs zero allocations. The residual
// is computed only on check iterations (every opt.CheckEvery-th, plus
// the MaxIter-th), mirroring FixedPointChecked's iterate/Progress/stop
// ordering exactly.
func iterateFused(k stepKernel, x0 Vector, opt SolverOptions) (Vector, IterStats, error) {
	return iterateFusedOwned(k, x0.Clone(), opt)
}

// iterateFusedOwned is iterateFused taking ownership of cur as the
// starting iterate instead of cloning it. Callers that construct the
// start vector themselves (PowerMethodTUniform filling a uniform x0)
// use it to avoid a third transient full-length vector.
func iterateFusedOwned(k stepKernel, cur Vector, opt SolverOptions) (Vector, IterStats, error) {
	opt = opt.withDefaults()
	check := opt.checkEvery()
	next := NewVector(len(cur))
	var st IterStats
	for st.Iterations = 1; st.Iterations <= opt.MaxIter; st.Iterations++ {
		wantRes := st.Iterations%check == 0 || st.Iterations == opt.MaxIter
		res := k.Step(next, cur, wantRes)
		if wantRes {
			st.Residual = res
		}
		cur, next = next, cur
		if opt.Progress != nil {
			if err := opt.Progress(st.Iterations, cur); err != nil {
				return cur, st, err
			}
		}
		if wantRes && st.Residual < opt.Tol {
			st.Converged = true
			return cur, st, nil
		}
	}
	st.Iterations = opt.MaxIter
	return cur, st, nil
}

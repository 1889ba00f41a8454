package linalg

import (
	"errors"
	"slices"
)

// IterStats records the outcome of an iterative solve.
type IterStats struct {
	Iterations int     // iterations performed
	Residual   float64 // distance between the last two iterates
	Converged  bool    // whether Residual dropped below Tol
}

// SolverOptions configures the iterative solvers. The zero value is usable:
// it selects the paper's convergence threshold (L2 distance below 1e-9),
// a 1000-iteration cap, and automatic worker selection.
type SolverOptions struct {
	Tol     float64 // convergence threshold on successive-iterate distance; default 1e-9
	MaxIter int     // iteration cap; default 1000
	Workers int     // goroutines for SpMV; <=0 means GOMAXPROCS
}

func (o SolverOptions) withDefaults() SolverOptions {
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 1000
	}
	return o
}

// ErrDimension reports mismatched operand sizes passed to a solver.
var ErrDimension = errors.New("linalg: dimension mismatch")

// Float32Tol is the tightest convergence threshold a float32 solve
// accepts. Successive float32 iterates cannot separate below the storage
// rounding noise (≈ 2⁻²⁴·‖x‖ per entry, ~6e-8·‖x‖₂ in aggregate), so a
// requested tolerance below this floor would spin to MaxIter without
// converging; the solvers clamp up to it instead.
const Float32Tol = 1e-7

// narrow returns v at value type F: v itself at float64, an entrywise
// rounding (to nearest even) at float32.
func narrow[F Float](v Vector) []F {
	if w, ok := any([]float64(v)).([]F); ok {
		return w
	}
	w := make([]F, len(v))
	for i, x := range v {
		w[i] = F(x)
	}
	return w
}

// JacobiAffineT solves x = c·Aᵀx + b by Jacobi iteration, the "convenient
// linear form" of the ranking equations (paper Eq. 3 uses c = α and
// b = (1-α)·teleport), with at = Aᵀ already materialized: A is
// row-stochastic in row-major CSR form, so every iteration multiplies by
// the transpose, and callers that solve several systems against the same
// matrix (rank.Split) or across refreshes (core's retained operand) build
// it once.
// The iteration converges for any 0 <= c < 1 because the spectral radius
// of c·Aᵀ is at most c.
// Each iteration runs on the fused affine kernel: SpMV, scale, bias add,
// and residual in one parallel pass. The iteration starts from x0, or
// from b when x0 is nil. The value type of at is the precision of the
// solve: see PowerMethodT.
func JacobiAffineT[F Float](at *Matrix[F], c float64, b, x0 Vector, opt SolverOptions) (Vector, IterStats, error) {
	if x0 == nil {
		x0 = b
	}
	if at.Rows != at.ColsN || len(b) != at.Rows || len(x0) != at.Rows {
		return nil, IterStats{}, ErrDimension
	}
	k, err := newFusedKernel(at, c, narrow[F](b), true, ResidualL2, opt.Workers)
	if err != nil {
		return nil, IterStats{}, err
	}
	defer k.Close()
	x, st := iterateFused(k, slices.Clone(narrow[F](x0)), opt)
	return x, st, nil
}

// JacobiAffineTPair is JacobiAffineT at float64 for two systems over one
// at that differ only in bias and start (PageRank and TrustRank over one
// split operand, see rank.Split), in one sweep: each step streams at once
// for both. System j's result is bitwise JacobiAffineT(at, c, b[j],
// x0[j], opt)'s; done receives it as it converges or reaches MaxIter, and
// the other continues alone.
func JacobiAffineTPair(at *CSR, c float64, b, x0 [2]Vector, opt SolverOptions, done func(j int, x Vector, st IterStats)) error {
	cur := make([]float64, 2*at.Rows)
	for j := range b {
		if x0[j] == nil {
			x0[j] = b[j]
		}
		if at.Rows != at.ColsN || len(b[j]) != at.Rows || len(x0[j]) != at.Rows {
			return ErrDimension
		}
		for i, v := range x0[j] {
			cur[2*i+j] = v
		}
	}
	k, err := newFusedKernel(at, c, b[0], true, ResidualL2, opt.Workers)
	if err != nil {
		return err
	}
	defer k.Close()
	k.cols, k.aux2, k.partial = 2, b[1], make([]float64, 2*len(k.partial))
	iterateCols(k, cur, opt, done)
	return nil
}

// PowerMethodT computes the stationary distribution of the row-stochastic
// chain P̂ = c·Pᵀ + teleportation from the pre-transposed operand pt = Pᵀ
// (the spam-proximity walk's reverse operand, core's T″ᵀ, rank.TransitionT's
// direct Mᵀ build, a slab-backed Mᵀ). Rather than forming the dense rank-one
// teleportation term, each iteration computes y = c·Pᵀx, then adds the
// lost probability mass (1 - ||y||₁) times the teleport distribution t.
// This treatment also absorbs dangling rows (rows of P summing to zero):
// their mass is redistributed according to t, the standard PageRank fix.
// Each iteration runs on the fused power kernel (see FusedPower) with zero
// per-iteration allocation.
//
// t must be a probability distribution (nonnegative, sums to 1); x0, if
// nil, defaults to t.
//
// The value type of pt is the precision of the solve. Over a CSR32 the
// iterate, matrix values and teleport are stored at float32 — t and x0
// are narrowed once on entry — while every accumulation runs in float64,
// and the converged iterate is widened exactly back to a float64 Vector,
// so downstream ranking code is precision-agnostic. A float32 solve
// clamps tolerances below Float32Tol up to it. Results are bitwise identical across worker counts at
// either precision, but the float32 result differs from the float64 one
// in low-order bits — rank fidelity between the two is certified by
// internal/rankeval, not by bit equality.
func PowerMethodT[F Float](pt *Matrix[F], c float64, t Vector, x0 Vector, opt SolverOptions) (Vector, IterStats, error) {
	if pt.Rows != pt.ColsN || len(t) != pt.Rows {
		return nil, IterStats{}, ErrDimension
	}
	if x0 == nil {
		x0 = t
	}
	if len(x0) != pt.Rows {
		return nil, IterStats{}, ErrDimension
	}
	return powerSolve(pt, c, narrow[F](t), slices.Clone(narrow[F](x0)), opt)
}

// PowerMethodTUniform is PowerMethodT specialized to the uniform
// teleport distribution t[i] = 1/n held implicitly, with x0 = t: the
// classic PageRank configuration. The result is bitwise identical to
// PowerMethodT(pt, c, NewUniformVector(n), nil, opt) at every worker
// count and either precision — the implicit scalar is the uniform value
// narrowed to F exactly as the dense path would store it — but the solve
// keeps only the two ping-pong iterate vectors resident (no teleport
// vector, no retained x0), which is what lets a slab-backed solve of a
// larger-than-budget operand stay under its residency cap (the dense
// vectors are the entire heap-side footprint; the matrix streams through
// the page cache).
func PowerMethodTUniform[F Float](pt *Matrix[F], c float64, opt SolverOptions) (Vector, IterStats, error) {
	if pt.Rows != pt.ColsN || pt.Rows == 0 {
		return nil, IterStats{}, ErrDimension
	}
	cur := make([]F, pt.Rows)
	tv := F(1 / float64(pt.Rows))
	for i := range cur {
		cur[i] = tv
	}
	return powerSolve(pt, c, nil, cur, opt)
}

// PowerMethodT32Uniform is PowerMethodTUniform over a CSR32, kept under
// its old name for benchmark/surface.go, which this repository's
// benchmark contract freezes.
func PowerMethodT32Uniform(pt *CSR32, c float64, opt SolverOptions) (Vector, IterStats, error) {
	return PowerMethodTUniform(pt, c, opt)
}

// powerSolve runs the power iteration from cur, which it takes ownership
// of; a nil t is the uniform teleport (see NewFusedPower).
func powerSolve[F Float](pt *Matrix[F], c float64, t, cur []F, opt SolverOptions) (Vector, IterStats, error) {
	k, err := newFusedKernel(pt, c, t, false, ResidualL2, opt.Workers)
	if err != nil {
		return nil, IterStats{}, err
	}
	defer k.Close()
	x, st := iterateFused(k, cur, opt)
	return x, st, nil
}

// Gini returns the Gini coefficient of a nonnegative vector: 0 for a
// perfectly uniform distribution, approaching 1 as the mass concentrates
// on a single entry. Ranking-score inequality is a standard diagnostic
// for how "spread" an authority distribution is.
func Gini(v Vector) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	sorted := v.Clone()
	slices.Sort(sorted)
	var cum, total float64
	for i, x := range sorted {
		cum += float64(i+1) * x
		total += x
	}
	if total == 0 {
		return 0
	}
	return (2*cum/(float64(n)*total) - float64(n+1)/float64(n))
}

// Package rank implements the link-analysis baselines the paper builds on
// and compares against: PageRank (§2), the un-throttled SourceRank, HITS,
// and TrustRank. The paper's own contribution, Spam-Resilient SourceRank,
// lives in internal/core and reuses these solvers. Page-level PageRank
// runs the power method over Mᵀ (StationaryT); the source-level baselines
// the snapshot builder serves run Jacobi over Mᵀ's diagonal split and
// confirm with the power method (Split, SolveSplit).
package rank

import (
	"errors"

	"sourcerank/internal/graph"
	"sourcerank/internal/linalg"
)

// Options configures the random-walk rankers. The zero value matches the
// paper's experimental setup: α = 0.85, L2 tolerance 1e-9, uniform
// teleportation.
type Options struct {
	// Alpha is the mixing (damping) parameter; 0 defaults to 0.85.
	Alpha float64
	// Tol is the L2 convergence threshold on successive iterates;
	// 0 defaults to 1e-9, the paper's threshold.
	Tol float64
	// Workers bounds SpMV parallelism; <= 0 selects GOMAXPROCS.
	Workers int
	// Teleport optionally overrides the uniform teleportation vector.
	// It must be a probability distribution of length NumNodes.
	Teleport linalg.Vector
	// X0 optionally warm-starts the power iteration from a previous
	// solution instead of the teleport vector. On a slowly drifting
	// graph the previous snapshot's scores are within a small delta of
	// the new fixed point, so the solve pays only for the delta rather
	// than the full spectral gap. Must have length NumNodes; the solver
	// converges to the same fixed point from any starting distribution.
	X0 linalg.Vector
	// Precision selects the arithmetic of the power iteration. The
	// default, linalg.Float64, is the reference path. linalg.Float32 runs
	// the iteration on the float32 fused kernels — the matrix values and
	// iterate are stored at half width (roughly doubling effective memory
	// bandwidth) while all accumulation stays in float64 — and widens the
	// converged iterate back to float64. Tolerances below
	// linalg.Float32Tol are clamped up to it on that path.
	Precision linalg.Precision
}

func (o Options) alpha() float64 {
	if o.Alpha == 0 {
		return 0.85
	}
	return o.Alpha
}

func (o Options) tol() float64 {
	if o.Tol <= 0 {
		return 1e-9
	}
	return o.Tol
}

// maxIter caps the HITS and SALSA iterations, as linalg's default caps
// the solvers'.
const maxIter = 1000

func (o Options) solver() linalg.SolverOptions {
	return linalg.SolverOptions{Tol: o.Tol, Workers: o.Workers}
}

// ErrEmptyGraph reports ranking over a graph with no nodes.
var ErrEmptyGraph = errors.New("rank: empty graph")

// Result bundles a score vector with solver statistics.
type Result struct {
	Scores linalg.Vector
	Stats  linalg.IterStats
}

// transition builds the uniform out-degree transition matrix of g
// (paper §2): M_ij = 1/o(p_i) for each edge. Dangling rows stay empty;
// the power method redistributes their mass through the teleport vector.
func transition(g *graph.Graph) (*linalg.CSR, error) {
	n := g.NumNodes()
	entries := make([]linalg.Entry, 0, g.NumEdges())
	for u := 0; u < n; u++ {
		succ := g.Successors(int32(u))
		if len(succ) == 0 {
			continue
		}
		w := 1 / float64(len(succ))
		for _, v := range succ {
			entries = append(entries, linalg.Entry{Row: u, Col: int(v), Val: w})
		}
	}
	return linalg.NewCSR(n, n, entries)
}

// PageRank computes the PageRank vector π = αMᵀπ + (1-α)e over the page
// graph (paper Eq. 1). The power iteration only multiplies by Mᵀ, so that
// is the one operand built — by TransitionT's counting sort, never via
// the forward matrix.
func PageRank(g *graph.Graph, opt Options) (*Result, error) {
	if g.NumNodes() == 0 {
		return nil, ErrEmptyGraph
	}
	return StationaryT(TransitionT(g), opt)
}

// StationaryT computes the damped stationary distribution of a
// row-stochastic transition matrix T (uniform, consensus, or throttled)
// from its transpose Tᵀ. The power iteration only ever multiplies by the
// transpose, so the caller holds Tᵀ (PageRank builds it directly with
// TransitionT) and nothing re-materializes it per solve.
//
// The value type of tt is the precision the iteration runs at. A caller
// holding Tᵀ in float32 form (a float32 slab opened from disk, a mirror it
// narrowed itself) iterates it directly, with no per-call narrowing copy;
// opt.Precision = linalg.Float32 over a float64 operand narrows it once
// per call with linalg.NewCSR32 — the same bits by the same rounding, so
// the two routes agree bit for bit.
func StationaryT[F linalg.Float](tt *linalg.Matrix[F], opt Options) (*Result, error) {
	if tt.Rows == 0 {
		return nil, ErrEmptyGraph
	}
	tele := opt.Teleport
	if tele == nil {
		tele = linalg.NewUniformVector(tt.Rows)
	}
	if len(tele) != tt.Rows {
		return nil, linalg.ErrDimension
	}
	if opt.X0 != nil && len(opt.X0) != tt.Rows {
		return nil, linalg.ErrDimension
	}
	var res Result
	var err error
	if wide, ok := any(tt).(*linalg.CSR); ok && opt.Precision == linalg.Float32 {
		res.Scores, res.Stats, err = linalg.PowerMethodT(linalg.NewCSR32(wide), opt.alpha(), tele, opt.X0, opt.solver())
	} else {
		res.Scores, res.Stats, err = linalg.PowerMethodT(tt, opt.alpha(), tele, opt.X0, opt.solver())
	}
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// PageRankLinear solves the linear formulation π = αMᵀπ + (1-α)e by
// Jacobi iteration (paper's Eq. 3 analogue / Gleich et al. linear-system
// view) and L1-normalizes the result. It matches PageRank up to
// normalization on graphs without dangling mass and serves as a
// cross-check of the two solver paths.
func PageRankLinear(g *graph.Graph, opt Options) (*Result, error) {
	if g.NumNodes() == 0 {
		return nil, ErrEmptyGraph
	}
	m, err := transition(g)
	if err != nil {
		return nil, err
	}
	tele := opt.Teleport
	if tele == nil {
		tele = linalg.NewUniformVector(g.NumNodes())
	}
	if len(tele) != g.NumNodes() {
		return nil, linalg.ErrDimension
	}
	b := tele.Clone()
	b.Scale(1 - opt.alpha())
	scores, stats, err := linalg.JacobiAffineT(m.TransposeParallel(opt.Workers), opt.alpha(), b, nil, opt.solver())
	if err != nil {
		return nil, err
	}
	scores.Normalize1()
	return &Result{Scores: scores, Stats: stats}, nil
}

// TrustRank computes a PageRank personalized on a seed set of trusted
// nodes (Gyöngyi et al., cited as the paper's [22]): teleportation jumps
// only to trusted seeds, so trust decays with link distance from them.
// It is the one-walk SolveSplit over g's Mᵀ, cold from the teleport — the
// solve the snapshot builder runs — so it is float64 only.
func TrustRank(g *graph.Graph, trusted []int32, opt Options) (*Result, error) {
	if g.NumNodes() == 0 {
		return nil, ErrEmptyGraph
	}
	tele, err := TrustTeleport(g.NumNodes(), trusted)
	if err != nil {
		return nil, err
	}
	opt.Teleport = tele
	var res *Result
	err = SolveSplit(TransitionT(g), []Options{opt}, func(_ int, r *Result) { res = r })
	return res, err
}

// TrustTeleport returns TrustRank's teleport vector over n nodes: uniform
// on the trusted seeds, zero elsewhere. Callers that hold Mᵀ already
// pass it to SolveSplit as Options.Teleport and share Mᵀ and its split
// with PageRank.
func TrustTeleport(n int, trusted []int32) (linalg.Vector, error) {
	if len(trusted) == 0 {
		return nil, errors.New("rank: empty trusted seed set")
	}
	tele := linalg.NewVector(n)
	for _, s := range trusted {
		if s < 0 || int(s) >= n {
			return nil, errors.New("rank: trusted seed out of range")
		}
		tele[s] = 1
	}
	tele.Normalize1()
	return tele, nil
}

// Package core implements the paper's primary contribution:
// Spam-Resilient SourceRank (SRSR), a source-level random-walk ranking
// with influence throttling.
//
// The model composes three layers (paper §3):
//
//  1. a source view of the Web (internal/source groups pages by host),
//  2. source-consensus influence flow (edge strength counts the unique
//     pages of the origin source linking into the target source), and
//  3. influence throttling (every source must keep at least κ_i of its
//     transition mass on its own self-edge; internal/throttle).
//
// The SRSR vector σ solves σᵀ = α·σᵀ·T″ + (1-α)·cᵀ (paper Eq. 3), computed
// here with the fused parallel kernels of internal/linalg at the paper's
// convergence threshold (L2 < 1e-9) and mixing parameter α = 0.85: by
// Jacobi on the linear form when throttling is on, by the power method
// otherwise (see Config).
package core

import (
	"errors"
	"fmt"
	"slices"

	"sourcerank/internal/linalg"
	"sourcerank/internal/source"
	"sourcerank/internal/throttle"
)

// Config configures a Spam-Resilient SourceRank computation. The zero
// value reproduces the paper's setup, and the solve always runs in
// float64 over the in-heap T″ᵀ to its convergence threshold, L2 < 1e-9
// (linalg's default, as is the 1000-iteration cap).
//
// κ alone picks the scheme. Throttling loads the self-edges: a source
// with κᵢ = 1 is a pure self-loop, and the power method drains mass off
// a self-edge T″ᵢᵢ only at a rate of α·T″ᵢᵢ per step. So any κᵢ > 0
// selects Jacobi on D = I − α·diag(T″): each step is x ←
// D⁻¹(α·offdiag(T″ᵀ)x + (1−α)c), which solves every self-edge exactly.
// Its stop, the L2 norm of the Jacobi step Δ below 1e-9, certifies the
// power method's too: (I − α·T″ᵀ)x − (1−α)c = −D·Δ with 0 < Dᵢᵢ ≤ 1, so
// the one-step power residual is at most ‖Δ‖ entry by entry. With κ ≡ 0
// the mass that circulates between sources (spam farms' mutual links) is
// left in place, Jacobi gains nothing on it, and the power method takes
// fewer steps.
type Config struct {
	// Alpha is the mixing parameter α; 0 defaults to 0.85.
	Alpha float64
	// Workers bounds SpMV parallelism; <= 0 selects GOMAXPROCS.
	Workers int
	// X0 optionally warm-starts the stationary solve from a previous
	// score vector (e.g. the last published snapshot's σ). It must have
	// one entry per source; either scheme converges to the same fixed
	// point from any start, only faster when X0 is close. Without it
	// both start from the teleport vector c.
	X0 linalg.Vector
}

// sanitizeWarmStart clones and L1-normalizes a warm-start vector so the
// solve starts from a probability distribution. A nil or degenerate
// (zero/non-normalizable) vector yields nil, i.e. a cold start.
func sanitizeWarmStart(prev linalg.Vector) linalg.Vector {
	if prev == nil {
		return nil
	}
	x0 := prev.Clone()
	if !x0.Normalize1() {
		return nil
	}
	return x0
}

func (c Config) alpha() float64 {
	if c.Alpha == 0 {
		return 0.85
	}
	return c.Alpha
}

// Result is the outcome of an SRSR computation.
type Result struct {
	// Scores is the SRSR vector σ, a probability distribution over
	// sources.
	Scores linalg.Vector
	// Kappa is the throttling vector used.
	Kappa []float64
	// Stats reports solver convergence.
	Stats linalg.IterStats
	// op is the solve's operand, which PipelineRefresh retains for its
	// residual probe.
	op operand
}

// Rank computes Spam-Resilient SourceRank over a prepared source graph
// with the given throttling vector. Pass a zero vector for κ to obtain
// the un-throttled (but still consensus-weighted, self-edged) model.
// cfg.X0 warm-starts the solve: after a small change to the graph — a
// spam injection, a recrawl of one site — the previous σ converges in a
// fraction of the cold-start iterations. A Jacobi solve builds its
// operand straight from sg.T (jacobiOperand); the power method solves over
// the transpose of throttle.Apply's T″.
func Rank(sg *source.Graph, kappa []float64, cfg Config) (*Result, error) {
	return rankOver(sg, kappa, cfg, operand{})
}

// rankOver is Rank, building a Jacobi operand into prev's arrays when its
// pattern still holds (see jacobiOperand).
func rankOver(sg *source.Graph, kappa []float64, cfg Config, prev operand) (*Result, error) {
	if sg == nil || sg.NumSources() == 0 {
		return nil, errors.New("core: empty source graph")
	}
	res := &Result{Kappa: append([]float64(nil), kappa...)}
	var err error
	if slices.ContainsFunc(kappa, func(k float64) bool { return k > 0 }) {
		res.op, err = jacobiOperand(sg.T, kappa, cfg.alpha(), cfg.Workers, prev)
	} else {
		var tpp *linalg.CSR
		if tpp, err = throttle.Apply(sg.T, kappa); err == nil {
			res.op = operand{m: tpp.TransposeParallel(cfg.Workers)}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("core: applying throttle: %w", err)
	}
	if res.Scores, res.Stats, err = solve(cfg, res.op); err != nil {
		return nil, err
	}
	return res, nil
}

// solve iterates over op from cfg.X0, else from the teleport vector c.
func solve(cfg Config, op operand) (linalg.Vector, linalg.IterStats, error) {
	n := op.m.Rows
	x0 := sanitizeWarmStart(cfg.X0)
	if x0 != nil && len(x0) != n {
		return nil, linalg.IterStats{}, linalg.ErrDimension
	}
	opt := linalg.SolverOptions{Workers: cfg.Workers}
	c := linalg.NewUniformVector(n)
	if op.bias == nil {
		return linalg.PowerMethodT(op.m, cfg.alpha(), c, x0, opt)
	}
	if x0 == nil {
		x0 = c
	}
	scores, stats, err := linalg.JacobiAffineT(op.m, 1, op.bias, x0, opt)
	if err == nil {
		scores.Normalize1()
	}
	return scores, stats, err
}

// BaselineSourceRank computes the un-throttled SourceRank over the same
// source graph: a PageRank-style walk on T with no throttling. This is
// the paper's Figure 5 baseline.
func BaselineSourceRank(sg *source.Graph, cfg Config) (*Result, error) {
	return Rank(sg, make([]float64, sg.NumSources()), cfg)
}

// PipelineConfig configures the computation over a source graph:
// spam-proximity throttling (paper §5) and the SRSR solve.
type PipelineConfig struct {
	Config
	// SpamSeeds lists the source IDs pre-labeled as spam. Required:
	// spam-proximity needs a seed set.
	SpamSeeds []int32
	// TopK is the number of highest-proximity sources to throttle fully
	// (κ = 1, every other source κ = 0); throttle.DefaultTopK is the
	// paper's cut. The proximity walk runs at β = 0.85.
	TopK int
}

// PipelineResult extends Result with the intermediate artifacts of the
// full pipeline.
type PipelineResult struct {
	Result
	Proximity      linalg.Vector
	ProximityStats linalg.IterStats
}

// Pipeline runs the Spam-Resilient SourceRank pipeline on a source graph
// (source.Build derives one from a page graph): propagate spam proximity
// from the seed set, throttle its top-k set fully, and solve for σ. It is
// PipelineRefresh with no history.
func Pipeline(sg *source.Graph, cfg PipelineConfig) (*PipelineResult, error) {
	res, _, err := PipelineRefresh(sg, cfg, nil)
	return res, err
}

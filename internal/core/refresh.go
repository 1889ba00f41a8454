package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"sourcerank/internal/linalg"
	"sourcerank/internal/source"
	"sourcerank/internal/throttle"
)

// RefreshState carries the reusable artifacts of the previous refresh.
// The zero value means "no history" and makes PipelineRefresh the cold
// pipeline; afterwards the state is updated in place. One owner holds one
// RefreshState and never shares its mutable fields (Kappa in particular
// is a working buffer patched in place between refreshes).
type RefreshState struct {
	// T is the source transition matrix the state below was computed
	// from. Pointer equality with the current sg.T proves the consensus
	// weights are unchanged; together with an unchanged assignment it
	// unlocks the skip-solve fast path. Nil while no solve over the
	// current Kappa has succeeded.
	T *linalg.CSR
	// assigned is what Proximity and Kappa were derived from besides the
	// structure: the seed set and the top-k size.
	assigned assignment
	// rowPtr and cols are the Counts arrays, and so the structure,
	// Proximity was walked on.
	rowPtr []int64
	cols   []int32
	// Proximity is the previous spam-proximity vector, used to
	// warm-start the next walk.
	Proximity linalg.Vector
	// Kappa is the working throttling vector, patched in place by
	// PatchTopK. Results expose defensive copies, never this buffer.
	Kappa []float64
	// Scores is the previous SRSR vector, used to warm-start the next
	// stationary solve — and returned pointer-identical when the solve
	// is skipped, so downstream caches can reuse whole encodings.
	Scores linalg.Vector
	// op is the last solve's operand (T″ᵀ, or its Jacobi form), over
	// which an unchanged (T, κ) pair probes the retained scores, and
	// whose Jacobi pattern the next solve over T's sparsity rewrites in
	// place.
	op operand
}

// assignment is every input of the proximity → κ step other than the
// graph. Comparing it costs one pass over the seeds and allocates
// nothing, so the fast path can afford it on every refresh.
type assignment struct {
	seeds []int32
	topK  int
}

func (a assignment) matches(cfg PipelineConfig) bool {
	return a.topK == cfg.TopK && slices.Equal(a.seeds, cfg.SpamSeeds)
}

// RefreshInfo reports which incremental paths a refresh took; the bench
// and the equivalence suite key off it.
type RefreshInfo struct {
	// KappaChanged is the number of κ entries that differ from the κ
	// before this refresh.
	KappaChanged int
	// BoundaryGap is the top-k selection margin of the proximity κ came
	// from (+Inf when k clamps to the whole range or to nothing).
	BoundaryGap float64
	// ProximityCold reports a walk from the seeds: the first refresh or a
	// contested boundary.
	ProximityCold bool
	// ProximityCarried: sg.Counts shares the RowPtr and Cols the retained
	// walk read, and the assignment is the same, so no walk.
	ProximityCarried bool
	// Decision is how the walk settled binary κ (throttle.DecideTopK).
	Decision throttle.Decision
	// SolveSkipped reports that T and κ were unchanged and a one-step
	// residual probe confirmed the previous scores still satisfy the
	// convergence threshold, so the solve was skipped entirely and the
	// previous score vector was returned pointer-identical.
	SolveSkipped bool
}

// PipelineRefresh is the proximity → κ → throttle → solve pipeline, run
// against the previous refresh's state; with a nil or zero state it is
// the cold pipeline. Binary κ is the walk's fixed point's top-k set, which
// throttle.DecideTopK proves from any start, and the scores meet the same
// threshold against the same fixed point. The walk reads sg.Structure();
// while sg.Counts shares the RowPtr and Cols arrays the retained walk
// read (source.Incremental.Emit shares them exactly while the sparsity
// holds, and nothing writes them) and the assignment is the same,
// proximity and κ carry over. The solve goes through Rank, started from
// the previous scores when there are any and from cfg.X0 otherwise; a
// Jacobi solve over a T that shares the retained operand's RowPtr and
// Cols (a count drift) rewrites that operand's values in place instead
// of building it anew. Everything in cfg but the seeds and TopK is
// expected to stay fixed over one state's lifetime.
func PipelineRefresh(sg *source.Graph, cfg PipelineConfig, st *RefreshState) (*PipelineResult, RefreshInfo, error) {
	info := RefreshInfo{BoundaryGap: math.Inf(1)}
	if sg == nil || sg.NumSources() == 0 {
		return nil, info, errors.New("core: empty source graph")
	}
	if st == nil {
		st = &RefreshState{}
	}
	n := sg.NumSources()

	if st.T != nil && sg.T == st.T && st.assigned.matches(cfg) {
		// Fast path: consensus weights unchanged (Emit returned a graph
		// sharing the previous T) and the same assignment, so proximity and
		// κ carry over verbatim; one solver step probes whether the previous
		// scores still meet the convergence threshold.
		residual, ok, err := probe(cfg.Config, st)
		if err != nil {
			return nil, info, err
		}
		if ok {
			info.SolveSkipped = true
			return &PipelineResult{
				Result: Result{
					Scores: st.Scores,
					Kappa:  append([]float64(nil), st.Kappa...),
					Stats:  linalg.IterStats{Residual: residual, Converged: true},
				},
				Proximity: st.Proximity,
			}, info, nil
		}
	} else {
		// Until the solve below succeeds the state describes no solved
		// (T, κ) pair: a failed refresh must not leave the fast path armed
		// over a κ the retained scores were never solved for.
		st.T = nil
		// Proximity reads only the sparsity, which count drift leaves alone.
		info.ProximityCarried = sameArray(st.rowPtr, sg.Counts.RowPtr) && sameArray(st.cols, sg.Counts.Cols) &&
			st.assigned.matches(cfg) && len(st.Proximity) == n
		if !info.ProximityCarried {
			popt := throttle.ProximityOptions{Workers: cfg.Workers, X0: sanitizeWarmStart(st.Proximity.Padded(n))}
			prox, dec, err := throttle.DecideTopK(sg.Structure(), cfg.SpamSeeds, cfg.TopK, popt)
			if err != nil {
				return nil, info, fmt.Errorf("core: spam proximity: %w", err)
			}
			info.Decision = dec
			info.ProximityCold = popt.X0 == nil || dec.Contested != ""
			if st.Kappa = linalg.Vector(st.Kappa).Padded(n); st.Kappa == nil {
				st.Kappa = make([]float64, n)
			}
			info.KappaChanged, info.BoundaryGap = throttle.PatchTopK(st.Kappa, prox, cfg.TopK)
			st.Proximity, st.rowPtr, st.cols = prox, sg.Counts.RowPtr, sg.Counts.Cols
			if !st.assigned.matches(cfg) {
				st.assigned = assignment{slices.Clone(cfg.SpamSeeds), cfg.TopK}
			}
		}
	}

	solveCfg := cfg.Config
	if st.Scores != nil {
		solveCfg.X0 = st.Scores.Padded(n)
	}
	res, err := rankOver(sg, st.Kappa, solveCfg, st.op)
	if err != nil {
		return nil, info, err
	}
	st.T, st.Scores, st.op = sg.T, res.Scores, res.op
	return &PipelineResult{
		Result:         *res,
		Proximity:      st.Proximity,
		ProximityStats: info.Decision.IterStats,
	}, info, nil
}

// probe handles the unchanged-(T,κ) case: one step of the scheme that
// solved it — a fused power step over the retained T″ᵀ, or a Jacobi step
// over its Jacobi form — from the previous scores measures the residual.
// ok reports it within the solve's threshold, in which case the previous
// vector still stands.
func probe(cfg Config, st *RefreshState) (residual float64, ok bool, err error) {
	if op := st.op; op.bias != nil {
		var stats linalg.IterStats
		_, stats, err = linalg.JacobiAffineT(op.m, 1, op.bias, st.Scores, linalg.SolverOptions{MaxIter: 1, Workers: cfg.Workers})
		residual = stats.Residual
	} else {
		var fp *linalg.FusedPower[float64]
		if fp, err = linalg.NewFusedPower(op.m, cfg.alpha(), nil, linalg.ResidualL2, cfg.Workers); err == nil {
			residual = fp.Step(make([]float64, len(st.Scores)), st.Scores)
			fp.Close()
		}
	}
	if err != nil {
		return 0, false, fmt.Errorf("core: residual probe: %w", err)
	}
	return residual, residual <= 1e-9, nil // the solve's threshold (see Config)
}

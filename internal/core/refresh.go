package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"sourcerank/internal/graph"
	"sourcerank/internal/linalg"
	"sourcerank/internal/source"
	"sourcerank/internal/throttle"
)

// boundaryGap is the guard band on the top-k selection boundary under a
// warm-started proximity walk. A warm walk converges to within roughly
// Tol/(1-β) of the cold fixed point per entry (≈7e-9 at the defaults),
// so when the gap between the k-th and (k+1)-th warm scores exceeds this
// guard the warm and cold walks provably select the same top-k set. A
// smaller gap means the boundary is contested and the walk is recomputed
// cold, which makes the κ assignment bitwise identical to a cold
// rebuild's by construction rather than by tolerance.
const boundaryGap = 1e-6

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
	// structure: the seed set, the top-k size and the κ heuristic.
	assigned assignment
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
	// ThrottledT caches T″ᵀ, the solve's operand, so an unchanged (T, κ)
	// pair skips the throttle transform and the transpose. It stays nil
	// under Config.SlabDir: the committed slab file is the retained
	// operand there, and the probe reopens it.
	ThrottledT *linalg.CSR
}

// assignment is every input of the proximity → κ step other than the
// graph. Comparing it costs one pass over the seeds and allocates
// nothing, so the fast path can afford it on every refresh.
type assignment struct {
	seeds     []int32
	topK      int
	graded    bool
	gradedMax float64
}

func (a assignment) matches(cfg PipelineConfig) bool {
	return a.topK == cfg.TopK && a.graded == cfg.Graded && a.gradedMax == cfg.GradedMax &&
		slices.Equal(a.seeds, cfg.SpamSeeds)
}

// RefreshInfo reports which incremental paths a refresh took; the bench
// and the equivalence suite key off it.
type RefreshInfo struct {
	// KappaChanged is the number of κ entries that flipped.
	KappaChanged int
	// BoundaryGap is the top-k selection margin of the warm proximity
	// vector (+Inf when k clamps to the whole range or to nothing).
	BoundaryGap float64
	// ProximityCold reports that the proximity walk ran cold-started —
	// either the first refresh, a contested boundary (gap under the
	// guard), or Graded mode, which needs the full cold vector because
	// every κ value depends on it.
	ProximityCold bool
	// SolveSkipped reports that T and κ were unchanged and a one-step
	// residual probe confirmed the previous scores still satisfy the
	// convergence threshold, so the solve was skipped entirely and the
	// previous score vector was returned pointer-identical (with no
	// Result.Throttled: T″ was not formed).
	SolveSkipped bool
}

// PipelineRefresh is the proximity → κ → throttle → solve pipeline, run
// against the previous refresh's state; with a nil or zero state it is
// the cold pipeline. The returned κ is bitwise identical to what the cold
// pipeline over the same source graph and configuration assigns (see
// boundaryGap), and the scores satisfy the same convergence threshold
// against the same fixed point. structure must present the same successor
// rows as sg.Structure() and nil means exactly that; the stream pipeline
// passes its incrementally maintained overlay so no CSR rebuild is paid
// here. The solve goes through Rank (checkpointed with cfg.Checkpoint
// set), started from the previous scores when there are any and from
// cfg.X0 otherwise. Everything in cfg but the seeds, TopK, Graded and
// GradedMax is expected to stay fixed over one state's lifetime.
func PipelineRefresh(sg *source.Graph, structure graph.Topology, cfg PipelineConfig, st *RefreshState) (*PipelineResult, RefreshInfo, error) {
	info := RefreshInfo{}
	if sg == nil || sg.NumSources() == 0 {
		return nil, info, errors.New("core: empty source graph")
	}
	if st == nil {
		st = &RefreshState{}
	}
	n := sg.NumSources()
	var pstats linalg.IterStats

	if st.T != nil && sg.T == st.T && st.assigned.matches(cfg) {
		// Fast path: consensus weights unchanged (Emit returned a graph
		// sharing the previous T) and the same assignment asked for.
		// Proximity and κ depend only on the structure — the sparsity of
		// the unchanged Counts — and the assignment, so both carry over
		// verbatim and there is no contested boundary; a single power
		// step probes whether the previous scores still meet the
		// convergence threshold.
		info.BoundaryGap = math.Inf(1)
		residual, ok, err := probe(cfg.Config, st)
		if err != nil {
			return nil, info, err
		}
		if ok {
			info.SolveSkipped = true
			return &PipelineResult{
				Result: Result{
					Scores:    st.Scores,
					Kappa:     append([]float64(nil), st.Kappa...),
					Stats:     linalg.IterStats{Residual: residual, Converged: true},
					Precision: cfg.Precision,
				},
				SourceGraph: sg,
				Proximity:   st.Proximity,
			}, info, nil
		}
	} else {
		if structure == nil {
			structure = sg.Structure()
		}
		// Until the solve below succeeds the state describes no solved
		// (T, κ) pair: a failed refresh must not leave the fast path armed
		// over a κ the retained scores were never solved for.
		st.T = nil
		// Graded κ depends on every proximity value, not just the top-k
		// membership, so only the binary assignment can tolerate a warm
		// (tolerance-equal rather than bitwise-equal) walk.
		popt := throttle.ProximityOptions{Workers: cfg.Workers}
		if !cfg.Graded {
			popt.X0 = sanitizeWarmStart(st.Proximity.Padded(n))
		}
		info.ProximityCold = popt.X0 == nil
		prox, ps, err := throttle.SpamProximity(structure, cfg.SpamSeeds, popt)
		if err != nil {
			return nil, info, fmt.Errorf("core: spam proximity: %w", err)
		}
		// κ assignment over the warm walk, with the cold fallback when the
		// selection boundary is contested.
		if cfg.Graded {
			st.Kappa = throttle.Graded(prox, cfg.TopK, cfg.GradedMax)
			info.KappaChanged = n
		} else {
			if st.Kappa = linalg.Vector(st.Kappa).Padded(n); st.Kappa == nil {
				st.Kappa = make([]float64, n)
			}
			changed, gap := throttle.PatchTopK(st.Kappa, prox, cfg.TopK)
			if gap < boundaryGap && !info.ProximityCold {
				info.ProximityCold = true
				popt.X0 = nil
				prox, ps, err = throttle.SpamProximity(structure, cfg.SpamSeeds, popt)
				if err != nil {
					return nil, info, fmt.Errorf("core: spam proximity (cold fallback): %w", err)
				}
				changed, gap = throttle.PatchTopK(st.Kappa, prox, cfg.TopK)
			}
			info.KappaChanged, info.BoundaryGap = changed, gap
		}
		st.Proximity, pstats = prox, ps
		if !st.assigned.matches(cfg) {
			st.assigned = assignment{slices.Clone(cfg.SpamSeeds), cfg.TopK, cfg.Graded, cfg.GradedMax}
		}
	}

	solveCfg := cfg.Config
	if st.Scores != nil {
		solveCfg.X0 = st.Scores.Padded(n)
	}
	res, ckInfo, err := rank(sg, st.Kappa, solveCfg, cfg.Checkpoint)
	if err != nil {
		return nil, info, err
	}
	if st.T, st.Scores, st.ThrottledT = sg.T, res.Scores, res.throttledT; cfg.SlabDir != "" {
		st.ThrottledT = nil
	}
	return &PipelineResult{
		Result:         *res,
		SourceGraph:    sg,
		Proximity:      st.Proximity,
		ProximityStats: pstats,
		Checkpoint:     ckInfo,
	}, info, nil
}

// probe handles the unchanged-(T,κ) case: one fused power step from the
// previous scores over the retained T″ᵀ — the in-heap transpose, or the
// slab the last solve committed — measures the residual at the solve's
// precision. ok reports it within the solve's tolerance, in which case
// the previous vector still stands.
func probe(cfg Config, st *RefreshState) (residual float64, ok bool, err error) {
	tol := 1e-9 // the solve's threshold (see Config)
	if cfg.Precision == linalg.Float32 {
		tol = max(tol, linalg.Float32Tol)
		residual, err = probeAt(cfg, st, linalg.NewCSR32)
	} else {
		residual, err = probeAt(cfg, st, asIs)
	}
	return residual, residual <= tol, err
}

func probeAt[F linalg.Float](cfg Config, st *RefreshState, inHeap func(*linalg.CSR) *linalg.Matrix[F]) (float64, error) {
	m, closeOperand, err := openOperand(cfg, st.ThrottledT, inHeap)
	if err != nil {
		return 0, fmt.Errorf("core: residual probe: %w", err)
	}
	defer closeOperand()
	fp, err := linalg.NewFusedPower(m, cfg.alpha(), nil, linalg.ResidualL2, cfg.Workers)
	if err != nil {
		return 0, fmt.Errorf("core: residual probe: %w", err)
	}
	defer fp.Close()
	// The float64 probe reads the retained vector in place.
	src, same := any([]float64(st.Scores)).([]F)
	if !same {
		src = make([]F, len(st.Scores))
		for i, x := range st.Scores {
			src[i] = F(x)
		}
	}
	return fp.Step(make([]F, len(src)), src), nil
}

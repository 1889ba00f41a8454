// Package throttle implements influence throttling, the paper's third and
// decisive spam-resilience component (§3.3), plus the spam-proximity
// mechanism (§5) for choosing each source's throttling factor κ.
//
// Given the row-stochastic source transition matrix T′ (with mandatory
// self-edges) and a throttling vector κ, the transformed matrix T″ forces
// every source to keep at least κ_i of its influence on itself:
//
//	T″_ii = κ_i                          if T′_ii < κ_i
//	T″_ij = T′_ij/Σ_{k≠i}T′_ik · (1-κ_i) if T′_ii < κ_i and j ≠ i
//	T″_ij = T′_ij                        otherwise
package throttle

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"sourcerank/internal/graph"
	"sourcerank/internal/linalg"
)

// ErrKappa reports an invalid throttling vector.
var ErrKappa = errors.New("throttle: invalid throttling vector")

// Validate checks that kappa has length n with all entries in [0,1].
func Validate(kappa []float64, n int) error {
	if len(kappa) != n {
		return fmt.Errorf("%w: length %d, want %d", ErrKappa, len(kappa), n)
	}
	for i, k := range kappa {
		if k < 0 || k > 1 || k != k {
			return fmt.Errorf("%w: kappa[%d] = %v outside [0,1]", ErrKappa, i, k)
		}
	}
	return nil
}

// Apply transforms the row-stochastic transition matrix t into the
// influence-throttled matrix T″. Rows whose self-weight already meets
// κ_i are copied unchanged. For a fully-throttled source (κ_i = 1) all
// out-edges are dropped and the row becomes a pure self-loop — "all edges
// to other sources are completely ignored".
//
// A row whose off-diagonal mass is zero (a pure self-loop, e.g. a dangling
// source) keeps its full self-weight of 1 regardless of κ_i.
func Apply(t *linalg.CSR, kappa []float64) (*linalg.CSR, error) {
	if t.Rows != t.ColsN {
		return nil, linalg.ErrDimension
	}
	if err := Validate(kappa, t.Rows); err != nil {
		return nil, err
	}
	// Input rows are sorted and the transforms below preserve column
	// order (a κ-inserted self-edge replaces an existing sorted diagonal
	// or stands alone), so the output is assembled directly in CSR form —
	// no entry buffer, no sort. The output is a new matrix even where
	// every row is copied.
	out := &linalg.CSR{
		Rows: t.Rows, ColsN: t.ColsN,
		RowPtr: make([]int64, t.Rows+1),
		Cols:   make([]int32, 0, t.NNZ()+t.Rows),
		Vals:   make([]float64, 0, t.NNZ()+t.Rows),
	}
	for i := 0; i < t.Rows; i++ {
		cols, vals := t.Row(i)
		switch r := Row(cols, vals, i, kappa[i]); r.Kind {
		case Copied:
			out.Cols = append(out.Cols, cols...)
			out.Vals = append(out.Vals, vals...)
		case SelfLoop:
			out.Cols = append(out.Cols, int32(i))
			out.Vals = append(out.Vals, r.Self)
		default:
			placed := false
			for k, c := range cols {
				if int(c) == i {
					continue
				}
				if !placed && int(c) > i {
					out.Cols = append(out.Cols, int32(i))
					out.Vals = append(out.Vals, r.Self)
					placed = true
				}
				out.Cols = append(out.Cols, c)
				out.Vals = append(out.Vals, vals[k]*r.Scale)
			}
			if !placed {
				out.Cols = append(out.Cols, int32(i))
				out.Vals = append(out.Vals, r.Self)
			}
		}
		out.RowPtr[i+1] = int64(len(out.Cols))
	}
	return out, nil
}

// RowKind is which case of §3.3's rule a row of T falls under.
type RowKind uint8

const (
	// Copied: the self-weight already meets κᵢ, and T″'s row is T's.
	Copied RowKind = iota
	// SelfLoop: T″'s row is the one entry (i, Self). A structurally
	// empty row, a row with no off-diagonal mass to rescale and a fully
	// throttled row (κᵢ = 1) fall here: "all edges to other sources are
	// completely ignored".
	SelfLoop
	// Rescaled: T″ᵢᵢ = Self = κᵢ, and each off-diagonal entry of T's row
	// is multiplied by Scale = (1−κᵢ)/Σ_{k≠i}T_ik.
	Rescaled
)

// RowRule is how §3.3 rewrites one row of T into T″: its case, the
// diagonal T″ᵢᵢ (for a copied row T's own diagonal, 0 where it has none),
// and the factor on each off-diagonal entry it keeps (1 for a copied
// row, which leaves every value's bits as they are).
type RowRule struct {
	Kind        RowKind
	Self, Scale float64
}

// Row applies the rule to row i of T, given by its sorted columns and
// values, at throttling factor ki. Apply and core's Jacobi operand both
// call it, so the rule is written once.
func Row(cols []int32, vals []float64, i int, ki float64) RowRule {
	if len(cols) == 0 {
		// Structurally empty row: treat as pure self-loop.
		return RowRule{Kind: SelfLoop, Self: 1}
	}
	var self float64
	for k, c := range cols {
		if int(c) >= i {
			if int(c) == i {
				self = vals[k]
			}
			break
		}
	}
	if self >= ki {
		// Already meets the throttling minimum: copy unchanged.
		return RowRule{Kind: Copied, Self: self, Scale: 1}
	}
	var off float64
	for k, c := range cols {
		if int(c) != i {
			off += vals[k]
		}
	}
	switch {
	case off == 0:
		// Self-weight below κ but nowhere else to send mass; the row must
		// stay stochastic, so it becomes a pure self-loop.
		return RowRule{Kind: SelfLoop, Self: 1}
	case ki >= 1:
		return RowRule{Kind: SelfLoop, Self: ki}
	}
	return RowRule{Kind: Rescaled, Self: ki, Scale: (1 - ki) / off}
}

// proximityBeta is the mixing factor β of the spam-proximity walk (§5).
const proximityBeta = 0.85

// ProximityOptions configures the spam-proximity walk of §5, which runs
// at β = 0.85 to linalg's default tolerance and iteration cap.
type ProximityOptions struct {
	Workers int
	// X0 optionally warm-starts the walk from a previous proximity
	// vector (e.g. the last published snapshot's); nil cold-starts from
	// the seed distribution. Must have one entry per source. The walk
	// converges to the same fixed point from any starting distribution.
	X0 linalg.Vector
}

// SpamProximity computes the spam-proximity score of every source by an
// inverse-PageRank walk: the source graph is reversed, transitions are
// uniform over reversed edges, and teleportation jumps to the seed set of
// pre-labeled spam sources (paper Eq. 6, BadRank-style). The returned
// vector is a probability distribution biased toward spam and toward
// sources "close" to spam in the forward-link sense.
//
// structure is the unweighted source graph (source.Graph.Structure). The
// walk reads only its successor rows, in node order, so two graphs with
// equal rows give bitwise-identical scores.
func SpamProximity(structure *graph.Graph, seeds []int32, opt ProximityOptions) (linalg.Vector, linalg.IterStats, error) {
	pt, d, err := proximityOperator(structure, seeds, opt.X0)
	if err != nil {
		return nil, linalg.IterStats{}, err
	}
	return linalg.PowerMethodT(pt, proximityBeta, d, opt.X0, linalg.SolverOptions{Workers: opt.Workers})
}

// Decision is how DecideTopK settled: the walk behind the returned vector,
// its proven L1 distance to the fixed point, and why none was proven.
type Decision struct {
	linalg.IterStats
	Bound     float64
	Contested string
}

// DecideTopK walks SpamProximity, cold or warm, until its top-k set (ties
// by index) is provably the fixed point's (DESIGN §11): a gap above twice
// errorBound of the step's residual. It selects only once 2·bound is under
// the last check's gap (at first 1/k, which no gap exceeds) or a quarter
// of its bound. A residual that stops falling or 1000 steps make the
// boundary contested, and SpamProximity's cold walk is returned.
func DecideTopK(structure *graph.Graph, seeds []int32, k int, opt ProximityOptions) (linalg.Vector, Decision, error) {
	pt, d, err := proximityOperator(structure, seeds, opt.X0)
	if err != nil {
		return nil, Decision{}, err
	}
	fp, err := linalg.NewFusedPower(pt, proximityBeta, d, linalg.ResidualL1, opt.Workers)
	if err != nil {
		return nil, Decision{}, err
	}
	defer fp.Close()
	cur, next, in := slices.Clone(d), make(linalg.Vector, len(d)), make([]float64, len(d))
	if opt.X0 != nil {
		copy(cur, opt.X0)
	}
	dec := Decision{Contested: "iteration cap"}
	prev, checkBelow := math.Inf(1), 1/float64(max(k, 0))
	for it := 1; it <= 1000; it++ {
		r := fp.Step(next, cur)
		cur, next = next, cur
		if r >= prev {
			dec.Contested = fmt.Sprintf("L1 residual stopped falling at iteration %d", it)
			break
		}
		prev = r
		if bound := errorBound(r, len(d)); 2*bound < checkBelow {
			_, gap := PatchTopK(in, cur, k)
			if gap > 2*bound {
				return cur, Decision{IterStats: linalg.IterStats{Iterations: it, Residual: r, Converged: true}, Bound: bound}, nil
			}
			checkBelow = max(gap, bound/2)
		}
	}
	prox, stats, err := SpamProximity(structure, seeds, ProximityOptions{Workers: opt.Workers})
	dec.IterStats = stats
	return prox, dec, err
}

// errorBound is the L1 distance from an n-source iterate to the fixed point
// after a step with L1 residual r, rounding included (DESIGN §11).
func errorBound(r float64, n int) float64 {
	return (proximityBeta*r + float64(2*n+4)*0x1p-53) / (1 - proximityBeta)
}

// proximityOperator returns the walk's operands: Pᵀ of the reversed-edge
// transition and the seed distribution d. x0, when not nil, must have one
// entry per source.
//
// P is uniform over the reversed edges, so Pᵀ is the forward graph itself
// with Pᵀ[u][v] = 1/indeg(v) on every forward edge (u, v): its RowPtr and
// Cols alias the structure's arrays (successor lists are sorted, so they
// are already in CSR order), and only the values are allocated.
func proximityOperator(structure *graph.Graph, seeds []int32, x0 linalg.Vector) (*linalg.CSR, linalg.Vector, error) {
	n := structure.NumNodes()
	if n == 0 {
		return nil, nil, errors.New("throttle: empty source graph")
	}
	if len(seeds) == 0 {
		return nil, nil, errors.New("throttle: empty spam seed set")
	}
	if x0 != nil && len(x0) != n {
		return nil, nil, linalg.ErrDimension
	}
	d := linalg.NewVector(n)
	for _, s := range seeds {
		if s < 0 || int(s) >= n {
			return nil, nil, fmt.Errorf("throttle: seed %d out of range [0,%d)", s, n)
		}
		d[s] = 1
	}
	d.Normalize1()

	rowPtr, cols := structure.Parts()
	indeg := make([]int64, n)
	for _, v := range cols {
		indeg[v]++
	}
	pt := &linalg.CSR{Rows: n, ColsN: n, RowPtr: rowPtr, Cols: cols, Vals: make([]float64, len(cols))}
	for k, v := range cols {
		pt.Vals[k] = 1 / float64(indeg[v])
	}
	return pt, d, nil
}

// DefaultTopK is the paper's top-k cut for n sources: 2.7 % of them,
// rounded to the nearest integer, since §5 throttles 20,000 of 738,626
// WB2001 sources.
func DefaultTopK(n int) int {
	return int(0.027*float64(n) + 0.5)
}

// TopK assigns the paper's simple throttling heuristic: the k sources
// with the highest spam-proximity score get κ = 1 (fully throttled), all
// others κ = 0. Ties at the boundary resolve by smaller index. k is
// clamped to [0, len(proximity)].
func TopK(proximity linalg.Vector, k int) []float64 {
	n := len(proximity)
	k = min(max(k, 0), n)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if proximity[idx[a]] != proximity[idx[b]] {
			return proximity[idx[a]] > proximity[idx[b]]
		}
		return idx[a] < idx[b]
	})
	kappa := make([]float64, n)
	for _, i := range idx[:k] {
		kappa[i] = 1
	}
	return kappa
}

// Graded assigns a graded throttling value: sources in the top-k receive
// κ = 1; the remainder receive κ proportional to their proximity score
// relative to the k-th score, capped at maxBelow. This is the "number of
// possible ways to assign these throttling values" extension the paper
// leaves open (§5); only the ablation-throttle experiment uses it, to
// compare it with TopK.
func Graded(proximity linalg.Vector, k int, maxBelow float64) []float64 {
	n := len(proximity)
	kappa := TopK(proximity, k)
	if k <= 0 || k >= n || maxBelow <= 0 {
		return kappa
	}
	// Threshold is the smallest score inside the top-k.
	thresh := 0.0
	first := true
	for i, in := range kappa {
		if in == 1 && (first || proximity[i] < thresh) {
			thresh = proximity[i]
			first = false
		}
	}
	if thresh <= 0 {
		return kappa
	}
	for i := range kappa {
		if kappa[i] == 1 {
			continue
		}
		g := proximity[i] / thresh * maxBelow
		if g > maxBelow {
			g = maxBelow
		}
		kappa[i] = g
	}
	return kappa
}

package rank

import (
	"errors"

	"sourcerank/internal/linalg"
)

// Split is a damped walk's transition transpose Tᵀ in the Jacobi form of
// its linear system x = α·Tᵀx + (1−α)t — the linear-system view of
// PageRank (Gleich, Zhukov & Berkhin), and the paper's Eq. 3 for SRSR.
// With D = I − α·diag(Tᵀ), each step x ← M·x + b̃, where M =
// D⁻¹·offdiag(α·Tᵀ) and b̃ = D⁻¹(1−α)t, solves every self-edge exactly;
// the power method drains a self-edge Tᵢᵢ only at a rate of α·Tᵢᵢ per
// step. D depends on T alone, so walks that differ only in teleport
// (PageRank and TrustRank over one Mᵀ) share M and differ in b̃.
type Split struct {
	// M is D⁻¹·offdiag(α·Tᵀ): row i of Tᵀ without its diagonal entry,
	// scaled by α/Dᵢᵢ.
	M     *linalg.CSR
	alpha float64
	d     []float64 // Dᵢᵢ = 1 − α·Tᵢᵢ
}

// NewSplit splits tt = Tᵀ at mixing parameter alpha into a new matrix.
func NewSplit(tt *linalg.CSR, alpha float64) *Split {
	n := tt.Rows
	m := &linalg.CSR{Rows: n, ColsN: n, RowPtr: make([]int64, n+1),
		Cols: make([]int32, tt.NNZ()), Vals: make([]float64, tt.NNZ())}
	d := make([]float64, n)
	var lo, w int64
	for i := 0; i < n; i++ {
		hi := tt.RowPtr[i+1]
		d[i] = 1
		for k := lo; k < hi; k++ {
			if int(tt.Cols[k]) == i {
				d[i] = 1 - alpha*tt.Vals[k]
			}
		}
		for k := lo; k < hi; k++ {
			if c := tt.Cols[k]; int(c) != i {
				m.Cols[w], m.Vals[w] = c, alpha*tt.Vals[k]/d[i]
				w++
			}
		}
		m.RowPtr[i+1], lo = w, hi
	}
	m.Cols, m.Vals = m.Cols[:w], m.Vals[:w]
	return &Split{M: m, alpha: alpha, d: d}
}

// Bias returns b̃ = D⁻¹(1−α)t, the right-hand side of the walk that
// teleports to t.
func (s *Split) Bias(t linalg.Vector) linalg.Vector {
	b := make(linalg.Vector, len(t))
	for i, v := range t {
		b[i] = (1 - s.alpha) * v / s.d[i]
	}
	return b
}

// SolveSplit solves one or two damped walks over tt = Tᵀ that differ only
// in teleport and start — PageRank and TrustRank over one Mᵀ — by Jacobi
// over one split of tt at their Alpha: two walks in one affine sweep
// (linalg.JacobiAffineTPair, each column bitwise its solo solve), each
// from its X0 or, cold, from its teleport. It L1-normalizes
// each Jacobi result and confirms it with the power method over tt from
// there, to the tolerance StationaryT stops at, so what it returns passes
// one power step: the iterate's sum error s−1 would otherwise come back
// after normalizing as (1−α)(s−1)/s·t, which a teleport on a few seeds
// concentrates (DESIGN.md §10). Result j's stats count both phases'
// iterations and carry the power residual. done receives each result as
// its walk finishes, so a caller can stamp each with its own completion
// time. The walks must share Alpha and Workers, and run at float64.
func SolveSplit(tt *linalg.CSR, walks []Options, done func(j int, res *Result)) error {
	if len(walks) == 0 || len(walks) > 2 {
		return errors.New("rank: a split solve takes one or two walks")
	}
	a := walks[0]
	for _, o := range walks {
		if o.alpha() != a.alpha() || o.Workers != a.Workers || o.Precision != linalg.Float64 {
			return errors.New("rank: split walks must share alpha and workers, at float64")
		}
	}
	if tt.Rows == 0 {
		return ErrEmptyGraph
	}
	s := NewSplit(tt, a.alpha())
	var tele, bias, x0 [2]linalg.Vector
	for j, o := range walks {
		if tele[j] = o.Teleport; tele[j] == nil {
			tele[j] = linalg.NewUniformVector(tt.Rows)
		}
		if len(tele[j]) != tt.Rows || o.X0 != nil && len(o.X0) != tt.Rows {
			return linalg.ErrDimension
		}
		if bias[j], x0[j] = s.Bias(tele[j]), o.X0; x0[j] == nil {
			x0[j] = tele[j]
		}
	}
	opt := a.solver()
	var err error
	confirm := func(j int, x linalg.Vector, jst linalg.IterStats) {
		if err != nil {
			return
		}
		x.Normalize1()
		var st linalg.IterStats
		if x, st, err = linalg.PowerMethodT(tt, s.alpha, tele[j], x, opt); err == nil {
			st.Iterations += jst.Iterations
			done(j, &Result{Scores: x, Stats: st})
		}
	}
	if len(walks) == 1 {
		x, st, jerr := linalg.JacobiAffineT(s.M, 1, bias[0], x0[0], opt)
		if jerr != nil {
			return jerr
		}
		confirm(0, x, st)
	} else if perr := linalg.JacobiAffineTPair(s.M, 1, bias, x0, opt, confirm); perr != nil {
		return perr
	}
	return err
}

package analysis

import (
	"math"
	"testing"

	"sourcerank/internal/linalg"
)

// solveUnnormalized solves the linear SRSR form σ = α·T″ᵀσ + (1-α)/|S| by
// Jacobi iteration without the final normalization, matching the paper's
// §4 algebra.
func solveUnnormalized(t *testing.T, tpp *linalg.CSR, alpha float64) linalg.Vector {
	t.Helper()
	b := linalg.NewUniformVector(tpp.Rows)
	b.Scale(1 - alpha)
	x, st, err := linalg.JacobiAffineT(tpp.Transpose(), alpha, b, nil, linalg.SolverOptions{Tol: 1e-14, MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("not converged: %+v", st)
	}
	return x
}

// TestSingleSourceFormulaMatchesSimulation verifies Eq. 4 against an
// explicit transition matrix: target source 0 with self-weight w, all
// other sources pure self-loops (so z = 0 for the target).
func TestSingleSourceFormulaMatchesSimulation(t *testing.T) {
	const n = 50
	const alpha = 0.85
	for _, w := range []float64{0, 0.25, 0.6, 1} {
		entries := []linalg.Entry{}
		if w > 0 {
			entries = append(entries, linalg.Entry{Row: 0, Col: 0, Val: w})
		}
		if w < 1 {
			// Remaining mass goes to a background source.
			entries = append(entries, linalg.Entry{Row: 0, Col: 1, Val: 1 - w})
		}
		for i := 1; i < n; i++ {
			entries = append(entries, linalg.Entry{Row: i, Col: i, Val: 1})
		}
		m, err := linalg.NewCSR(n, n, entries)
		if err != nil {
			t.Fatal(err)
		}
		sim := solveUnnormalized(t, m, alpha)
		want, err := SingleSourceScore(alpha, 0, n, w)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(sim[0]-want) > 1e-10 {
			t.Errorf("w=%v: simulated %v, formula %v", w, sim[0], want)
		}
	}
}

// TestColluderFormulaMatchesSimulation verifies §4.2's σ0(x,κ) against an
// explicit matrix: target 0 with pure self-loop, x colluding sources with
// self-weight κ and 1-κ to the target, background sources self-looped.
func TestColluderFormulaMatchesSimulation(t *testing.T) {
	const n = 60
	const alpha = 0.85
	for _, kappa := range []float64{0, 0.5, 0.9} {
		for _, x := range []int{1, 5, 20} {
			entries := []linalg.Entry{{Row: 0, Col: 0, Val: 1}}
			for i := 1; i <= x; i++ {
				if kappa > 0 {
					entries = append(entries, linalg.Entry{Row: i, Col: i, Val: kappa})
				}
				entries = append(entries, linalg.Entry{Row: i, Col: 0, Val: 1 - kappa})
			}
			for i := x + 1; i < n; i++ {
				entries = append(entries, linalg.Entry{Row: i, Col: i, Val: 1})
			}
			m, err := linalg.NewCSR(n, n, entries)
			if err != nil {
				t.Fatal(err)
			}
			sim := solveUnnormalized(t, m, alpha)
			want, err := TargetScoreWithColluders(alpha, x, n, kappa)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(sim[0]-want) > 1e-10 {
				t.Errorf("κ=%v x=%d: simulated %v, formula %v", kappa, x, sim[0], want)
			}
		}
	}
}

// TestMaxGainFactorMatchesSimulation verifies the Figure 2 ratio on real
// solves: score with w=1 over score with w=κ.
func TestMaxGainFactorMatchesSimulation(t *testing.T) {
	const n = 40
	const alpha = 0.85
	solveWithW := func(w float64) float64 {
		entries := []linalg.Entry{}
		if w > 0 {
			entries = append(entries, linalg.Entry{Row: 0, Col: 0, Val: w})
		}
		if w < 1 {
			entries = append(entries, linalg.Entry{Row: 0, Col: 1, Val: 1 - w})
		}
		for i := 1; i < n; i++ {
			entries = append(entries, linalg.Entry{Row: i, Col: i, Val: 1})
		}
		m, err := linalg.NewCSR(n, n, entries)
		if err != nil {
			t.Fatal(err)
		}
		return solveUnnormalized(t, m, alpha)[0]
	}
	opt := solveWithW(1)
	for _, kappa := range []float64{0, 0.5, 0.8, 0.9} {
		ratio := opt / solveWithW(kappa)
		want, err := MaxGainFactor(alpha, kappa)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ratio-want) > 1e-8 {
			t.Errorf("κ=%v: simulated ratio %v, formula %v", kappa, ratio, want)
		}
	}
}

// TestPageRankModelMatchesSimulation verifies the §4.3 PageRank model on
// an explicit page graph: τ colluding pages each with one link to the
// target, everything else self-looped so z = 0.
func TestPageRankModelMatchesSimulation(t *testing.T) {
	const n = 200
	const alpha = 0.85
	for _, tau := range []int{0, 1, 10, 50} {
		// The target page (row 0) has no out-links and, unlike a source,
		// no self-edge: in the linear PageRank formulation its score is
		// purely what flows in plus the teleport term.
		var entries []linalg.Entry
		for i := 1; i <= tau; i++ {
			entries = append(entries, linalg.Entry{Row: i, Col: 0, Val: 1})
		}
		for i := tau + 1; i < n; i++ {
			entries = append(entries, linalg.Entry{Row: i, Col: i, Val: 1})
		}
		m, err := linalg.NewCSR(n, n, entries)
		if err != nil {
			t.Fatal(err)
		}
		sim := solveUnnormalized(t, m, alpha)
		want, err := PageRankTargetScore(alpha, 0, tau, n)
		if err != nil {
			t.Fatal(err)
		}
		// The colluding pages receive no in-links, so their own score is
		// the teleport floor (1-α)/n and they pass α of it — but the
		// paper's model says each contributes α(1-α)/|P| exactly, which
		// matches the simulation when colluders have no in-links.
		if math.Abs(sim[0]-want) > 1e-10 {
			t.Errorf("τ=%d: simulated %v, formula %v", tau, sim[0], want)
		}
	}
}

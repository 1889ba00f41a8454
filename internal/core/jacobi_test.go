package core

import (
	"math"
	"slices"
	"testing"

	"sourcerank/internal/gen"
	"sourcerank/internal/linalg"
	"sourcerank/internal/rank"
	"sourcerank/internal/source"
	"sourcerank/internal/throttle"
)

// powerStepResidual is one damped power step from sigma over T″, written
// as a dense-free scatter over the rows of T″ itself (no transpose, no
// fused kernel): ‖α·T″ᵀσ + lost·c − σ‖₂ with the uniform teleport c.
func powerStepResidual(tpp *linalg.CSR, alpha float64, sigma linalg.Vector) float64 {
	n := tpp.Rows
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		cols, vals := tpp.Row(i)
		for k, j := range cols {
			y[j] += alpha * vals[k] * sigma[i]
		}
	}
	var sum float64
	for _, v := range y {
		sum += v
	}
	var r float64
	for j := range y {
		d := y[j] + (1-sum)/float64(n) - sigma[j]
		r += d * d
	}
	return math.Sqrt(r)
}

// powerOracle is the power method over κ, whatever κ holds: throttle.Apply,
// its transpose and PowerMethodT from the uniform teleport, the scheme
// Rank picks only for κ ≡ 0.
func powerOracle(t *testing.T, sg *source.Graph, kappa []float64) (linalg.Vector, linalg.IterStats) {
	t.Helper()
	tpp, err := throttle.Apply(sg.T, kappa)
	if err != nil {
		t.Fatal(err)
	}
	x, st, err := linalg.PowerMethodT(tpp.TransposeParallel(0), 0.85, linalg.NewUniformVector(sg.NumSources()), nil, linalg.SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return x, st
}

// TestJacobiOnThrottledPresets: on each generated crawl with the paper's
// binary κ, the default solve (Jacobi, by the κ rule) takes at most 0.6×
// the power method's iterations, its σ passes one power step within the
// paper's threshold, and it lies within 1e-8 L1 of the fixed point.
func TestJacobiOnThrottledPresets(t *testing.T) {
	for _, p := range gen.Presets {
		t.Run(string(p), func(t *testing.T) {
			ds, err := gen.GeneratePreset(p, 0.02, 1)
			if err != nil {
				t.Fatal(err)
			}
			sg, err := source.Build(ds.Pages, source.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Pipeline(sg, PipelineConfig{SpamSeeds: ds.SpamSources, TopK: throttle.DefaultTopK(sg.NumSources())})
			if err != nil {
				t.Fatal(err)
			}
			if got.op.bias == nil {
				t.Fatal("throttled solve did not run Jacobi")
			}
			_, pw := powerOracle(t, sg, got.Kappa)
			t.Logf("%d sources: jacobi %d iterations, power %d", sg.NumSources(), got.Stats.Iterations, pw.Iterations)
			if !got.Stats.Converged || float64(got.Stats.Iterations) > 0.6*float64(pw.Iterations) {
				t.Errorf("jacobi took %d iterations (converged %v), power %d: want at most 0.6×",
					got.Stats.Iterations, got.Stats.Converged, pw.Iterations)
			}
			tpp, err := throttle.Apply(sg.T, got.Kappa)
			if err != nil {
				t.Fatal(err)
			}
			if r := powerStepResidual(tpp, 0.85, got.Scores); !(r < 1e-9) {
				t.Errorf("one power step from the jacobi σ moves it by %g", r)
			}
			// The power solve stops up to ~2e-8 L1 from the fixed point
			// itself, so the agreement is measured against one run to 1e-13.
			ref, st, err := linalg.PowerMethodT(tpp.TransposeParallel(1), 0.85, linalg.NewUniformVector(sg.NumSources()), nil, linalg.SolverOptions{Tol: 1e-13})
			if err != nil || !st.Converged {
				t.Fatalf("reference power solve: %v, %+v", err, st)
			}
			var l1 float64
			for i := range got.Scores {
				l1 += math.Abs(got.Scores[i] - ref[i])
			}
			if l1 > 1e-8 {
				t.Errorf("jacobi σ is %g in L1 from the fixed point", l1)
			}
		})
	}
}

// TestUnthrottledSolveIsPower: with κ ≡ 0 the default solve is the
// power method, bit for bit.
func TestUnthrottledSolveIsPower(t *testing.T) {
	sg := buildSG(t, corpus(t))
	kappa := make([]float64, sg.NumSources())
	def, err := Rank(sg, kappa, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pw, st := powerOracle(t, sg, kappa)
	if def.op.bias != nil || !slices.Equal(def.Scores, pw) || def.Stats != st {
		t.Fatalf("κ ≡ 0 default solve is not the power solve: %+v vs %+v", def.Stats, st)
	}
}

// TestJacobiOperandStep checks the Jacobi split on a dense hand-built
// T″: one affine step over it from x is, entry by entry,
// xᵢ ← (α·Σ_{j≠i} T″ⱼᵢxⱼ + (1−α)/n) / (1 − α·T″ᵢᵢ).
func TestJacobiOperandStep(t *testing.T) {
	dense := [][]float64{
		{0.5, 0.25, 0, 0.25},
		{0, 1, 0, 0},
		{0.2, 0.3, 0.1, 0.4},
		{0, 0.6, 0.4, 0},
	}
	n := len(dense)
	var entries []linalg.Entry
	for i, row := range dense {
		for j, v := range row {
			if v != 0 || i == j {
				entries = append(entries, linalg.Entry{Row: j, Col: i, Val: v}) // T″ᵀ
			}
		}
	}
	const alpha = 0.85
	x := linalg.Vector{0.1, 0.4, 0.3, 0.2}
	tT, err := linalg.NewCSR(n, n, entries)
	if err != nil {
		t.Fatal(err)
	}
	orig := slices.Clone(tT.Vals)
	split := rank.NewSplit(tT, alpha)
	if !slices.Equal(tT.Vals, orig) {
		t.Fatal("the split wrote into its input")
	}
	got, _, err := linalg.JacobiAffineT(split.M, 1, split.Bias(linalg.NewUniformVector(n)), x, linalg.SolverOptions{MaxIter: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			if j != i {
				s += dense[j][i] * x[j]
			}
		}
		want := (alpha*s + (1-alpha)/float64(n)) / (1 - alpha*dense[i][i])
		if math.Abs(got[i]-want) > 1e-15 {
			t.Errorf("x[%d] = %v, want %v", i, got[i], want)
		}
	}
}

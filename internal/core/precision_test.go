package core

import (
	"math"
	"testing"

	"sourcerank/internal/gen"
	"sourcerank/internal/linalg"
	"sourcerank/internal/rankeval"
	"sourcerank/internal/source"
)

// fidelityFixture generates a realistic corpus (UK2002 preset at small
// scale, planted spam) and derives its source graph once for the
// float32-vs-float64 fidelity tests.
func fidelityFixture(t *testing.T) (*source.Graph, []int32) {
	t.Helper()
	ds, err := gen.GeneratePreset(gen.Preset("UK2002"), 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := source.Build(ds.Pages, source.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sg, ds.SpamSources
}

// TestFloat32PipelineFidelity is the end-to-end rank-fidelity gate for
// the float32 scoring path: the full κ-throttled SRSR pipeline run at
// float32 must reproduce the float64 ranking with Kendall τ ≥ 0.999 and
// top-100 overlap ≥ 0.99, must assign the identical κ vector (the
// proximity walk never runs at float32, so the throttle set cannot
// drift), and must not move the spam-demotion AUC materially.
func TestFloat32PipelineFidelity(t *testing.T) {
	sg, spam := fidelityFixture(t)
	run := func(p linalg.Precision) *PipelineResult {
		res, err := Pipeline(sg, PipelineConfig{
			Config:    Config{Precision: p},
			SpamSeeds: spam,
			TopK:      sg.NumSources() / 37, // ≈2.7%
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stats.Converged {
			t.Fatalf("%v solve did not converge: %+v", p, res.Stats)
		}
		return res
	}
	r64 := run(linalg.Float64)
	r32 := run(linalg.Float32)

	if r64.Precision != linalg.Float64 || r32.Precision != linalg.Float32 {
		t.Fatalf("precision provenance: f64 run %v, f32 run %v", r64.Precision, r32.Precision)
	}
	if len(r32.Kappa) != len(r64.Kappa) {
		t.Fatalf("kappa lengths differ: %d vs %d", len(r32.Kappa), len(r64.Kappa))
	}
	for i := range r64.Kappa {
		if r32.Kappa[i] != r64.Kappa[i] {
			t.Fatalf("kappa[%d] differs under float32: %v vs %v", i, r32.Kappa[i], r64.Kappa[i])
		}
	}

	tau, err := rankeval.KendallTau(r64.Scores, r32.Scores)
	if err != nil {
		t.Fatal(err)
	}
	if tau < 0.999 {
		t.Errorf("Kendall τ between float64 and float32 SRSR = %.6f, want >= 0.999", tau)
	}
	overlap, err := rankeval.TopKOverlap(r64.Scores, r32.Scores, 100)
	if err != nil {
		t.Fatal(err)
	}
	if overlap < 0.99 {
		t.Errorf("top-100 overlap between float64 and float32 SRSR = %.4f, want >= 0.99", overlap)
	}

	// Spam demotion: AUC of the negated scores against the spam labels
	// (high AUC = spam ranked low). The float32 path must preserve it.
	auc64 := spamDemotionAUC(t, r64.Scores, spam)
	auc32 := spamDemotionAUC(t, r32.Scores, spam)
	if d := math.Abs(auc64 - auc32); d > 1e-3 {
		t.Errorf("spam-demotion AUC moved by %.2e under float32 (%.6f vs %.6f)", d, auc32, auc64)
	}
}

func spamDemotionAUC(t *testing.T, scores linalg.Vector, spam []int32) float64 {
	t.Helper()
	neg := make(linalg.Vector, len(scores))
	for i, s := range scores {
		neg[i] = -s
	}
	auc, err := rankeval.AUC(neg, spam)
	if err != nil {
		t.Fatal(err)
	}
	return auc
}

// TestFloat32BaselineFidelity runs the same gates on the un-throttled
// SourceRank baseline, covering the κ = 0 corner of the solve.
func TestFloat32BaselineFidelity(t *testing.T) {
	sg, _ := fidelityFixture(t)
	r64, err := BaselineSourceRank(sg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r32, err := BaselineSourceRank(sg, Config{Precision: linalg.Float32})
	if err != nil {
		t.Fatal(err)
	}
	tau, err := rankeval.KendallTau(r64.Scores, r32.Scores)
	if err != nil {
		t.Fatal(err)
	}
	if tau < 0.999 {
		t.Errorf("baseline Kendall τ = %.6f, want >= 0.999", tau)
	}
	overlap, err := rankeval.TopKOverlap(r64.Scores, r32.Scores, 100)
	if err != nil {
		t.Fatal(err)
	}
	if overlap < 0.99 {
		t.Errorf("baseline top-100 overlap = %.4f, want >= 0.99", overlap)
	}
}

// TestFloat32JacobiSolverFidelity covers the Jacobi route of the float32
// option against its float64 counterpart.
func TestFloat32JacobiSolverFidelity(t *testing.T) {
	sg, _ := fidelityFixture(t)
	r64, err := Rank(sg, make([]float64, sg.NumSources()), Config{Solver: Jacobi})
	if err != nil {
		t.Fatal(err)
	}
	r32, err := Rank(sg, make([]float64, sg.NumSources()), Config{Solver: Jacobi, Precision: linalg.Float32})
	if err != nil {
		t.Fatal(err)
	}
	tau, err := rankeval.KendallTau(r64.Scores, r32.Scores)
	if err != nil {
		t.Fatal(err)
	}
	if tau < 0.999 {
		t.Errorf("jacobi Kendall τ = %.6f, want >= 0.999", tau)
	}
}

// TestFloat32CheckpointRejected pins the incompatibility: checkpointed
// solves must observe float64 iterates, so Precision Float32 is an
// explicit error — both directly and through the pipeline — and never
// silently changes fingerprint semantics.
func TestFloat32CheckpointRejected(t *testing.T) {
	sg := buildSG(t, corpus(t))
	cfg := Config{Precision: linalg.Float32}
	ck := CheckpointConfig{Dir: t.TempDir()}
	if _, _, err := rank(sg, make([]float64, sg.NumSources()), cfg, &ck); err == nil {
		t.Fatal("checkpointed solve accepted Precision Float32")
	}
	_, err := Pipeline(sg, PipelineConfig{
		Config:     cfg,
		SpamSeeds:  []int32{4, 5},
		TopK:       2,
		Checkpoint: &ck,
	})
	if err == nil {
		t.Fatal("checkpointed pipeline accepted Precision Float32")
	}
}

// TestCheckpointFingerprintGolden pins the checkpoint fingerprint bytes
// on fixed inputs: the float32 path must not perturb fingerprint
// derivation, or resume compatibility with pre-existing checkpoint
// directories would silently break. An intentional format change must
// update the constants (and bump the checkpoint magic).
func TestCheckpointFingerprintGolden(t *testing.T) {
	m, err := linalg.NewCSR(3, 3, []linalg.Entry{
		{Row: 0, Col: 1, Val: 0.5}, {Row: 0, Col: 2, Val: 0.5},
		{Row: 1, Col: 0, Val: 1}, {Row: 2, Col: 2, Val: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	cold := fingerprintOf(m, 0.85, nil)
	warm := fingerprintOf(m, 0.85, linalg.Vector{0.25, 0.25, 0.5})
	if want := uint64(0x4a2ae2d7003b4e8a); cold.hash != want || cold.nodes != 3 {
		t.Errorf("cold fingerprint = {nodes:%d hash:%#x}, golden {nodes:3 hash:%#x}", cold.nodes, cold.hash, want)
	}
	if want := uint64(0xf7284b5517582325); warm.hash != want || warm.nodes != 3 {
		t.Errorf("warm fingerprint = {nodes:%d hash:%#x}, golden {nodes:3 hash:%#x}", warm.nodes, warm.hash, want)
	}
}

// TestParsePrecision covers the flag-level parser both CLIs use.
func TestParsePrecision(t *testing.T) {
	cases := []struct {
		in   string
		want linalg.Precision
		ok   bool
	}{
		{"", linalg.Float64, true},
		{"float64", linalg.Float64, true},
		{"f64", linalg.Float64, true},
		{"float32", linalg.Float32, true},
		{"f32", linalg.Float32, true},
		{"float16", 0, false},
	}
	for _, c := range cases {
		got, err := linalg.ParsePrecision(c.in)
		if c.ok != (err == nil) || (c.ok && got != c.want) {
			t.Errorf("ParsePrecision(%q) = %v, %v", c.in, got, err)
		}
	}
}

package core

import (
	"slices"
	"testing"

	"sourcerank/internal/linalg"
)

// TestPipelineMaterializesOneTranspose asserts the reuse guarantee: one
// full pipeline run (spam proximity, SRSR solve) materializes at most one
// transpose per distinct matrix. The proximity walk builds its Pᵀ
// operand directly from the forward structure, and a throttled solve
// builds its Jacobi operand straight from T, so a pipeline run with
// throttled sources materializes none.
func TestPipelineMaterializesOneTranspose(t *testing.T) {
	sg := buildSG(t, corpus(t))
	before := linalg.TransposeMaterializations()
	res, err := Pipeline(sg, PipelineConfig{
		SpamSeeds: []int32{4},
		TopK:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatalf("not converged: %+v", res.Stats)
	}
	if d := linalg.TransposeMaterializations() - before; d > 1 {
		t.Errorf("pipeline materialized %d transposes, want at most 1", d)
	}
}

// TestBaselineRunsShareCachedTranspose asserts the zero-κ fast path:
// throttle.Apply returns T itself, so the solve reuses the transpose
// cached on the source graph and a second solve on the same graph
// materializes nothing new.
func TestBaselineRunsShareCachedTranspose(t *testing.T) {
	sg := buildSG(t, corpus(t))
	before := linalg.TransposeMaterializations()
	r1, err := BaselineSourceRank(sg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := BaselineSourceRank(sg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.TransposeMaterializations() - before; d != 1 {
		t.Errorf("two baseline solves materialized %d transposes, want 1 (shared)", d)
	}
	if r1.op.m != r2.op.m || r1.op.m != sg.TransposedT(0) {
		t.Error("zero-κ throttle should return T itself (identity fast path), solved over its cached transpose")
	}
	for i := range r1.Scores {
		if r1.Scores[i] != r2.Scores[i] {
			t.Fatalf("baseline solves disagree at %d", i)
		}
	}
}

// TestThrottledJacobiMaterializesNoTranspose checks the complement: a
// nonzero κ selects Jacobi, whose operand is built straight from T, so
// the solve materializes no transpose at all and leaves the source
// graph's cached Tᵀ as it was.
func TestThrottledJacobiMaterializesNoTranspose(t *testing.T) {
	sg := buildSG(t, corpus(t))
	tt := sg.TransposedT(0)
	rowPtr, cols, vals := slices.Clone(tt.RowPtr), slices.Clone(tt.Cols), slices.Clone(tt.Vals)
	kappa := make([]float64, sg.NumSources())
	kappa[4], kappa[5] = 1, 1
	before := linalg.TransposeMaterializations()
	res, err := Rank(sg, kappa, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.TransposeMaterializations() - before; d != 0 {
		t.Errorf("throttled Jacobi solve materialized %d transposes, want 0", d)
	}
	if res.op.bias == nil || res.op.m == tt {
		t.Fatal("nonzero κ should solve by Jacobi over an operand of its own")
	}
	if sg.TransposedT(0) != tt || !slices.Equal(tt.RowPtr, rowPtr) || !slices.Equal(tt.Cols, cols) || !slices.Equal(tt.Vals, vals) {
		t.Fatal("the throttled solve changed the cached Tᵀ")
	}
}

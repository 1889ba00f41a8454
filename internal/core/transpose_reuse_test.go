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

// TestThrottledJacobiMaterializesNoTranspose checks the complement: a
// nonzero κ selects Jacobi, whose operand is built straight from T, so
// the solve materializes no transpose at all and leaves sg.T as it was.
func TestThrottledJacobiMaterializesNoTranspose(t *testing.T) {
	sg := buildSG(t, corpus(t))
	rowPtr, cols, vals := slices.Clone(sg.T.RowPtr), slices.Clone(sg.T.Cols), slices.Clone(sg.T.Vals)
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
	if res.op.bias == nil {
		t.Fatal("nonzero κ should solve by Jacobi")
	}
	if !slices.Equal(sg.T.RowPtr, rowPtr) || !slices.Equal(sg.T.Cols, cols) || !slices.Equal(sg.T.Vals, vals) {
		t.Fatal("the throttled solve changed sg.T")
	}
}

package core

import (
	"testing"

	"sourcerank/internal/linalg"
)

// TestPipelineMaterializesOneTranspose asserts the tentpole reuse
// guarantee: one full pipeline run (spam proximity, SRSR solve)
// materializes at most one transpose per distinct matrix — in
// practice exactly one, of the throttled T″. The proximity walk builds
// its Pᵀ operand directly from the forward structure and the solvers
// accept pre-transposed operands, so no other transpose exists.
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

// TestThrottledRunMaterializesFreshTranspose checks the complement: a
// nonzero κ produces a distinct throttled matrix, which costs exactly one
// new transpose, and the source graph's cached Tᵀ is untouched.
func TestThrottledRunMaterializesFreshTranspose(t *testing.T) {
	sg := buildSG(t, corpus(t))
	kappa := make([]float64, sg.NumSources())
	kappa[4], kappa[5] = 1, 1
	before := linalg.TransposeMaterializations()
	res, err := Rank(sg, kappa, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.TransposeMaterializations() - before; d != 1 {
		t.Errorf("throttled solve materialized %d transposes, want 1", d)
	}
	if res.op.m == sg.TransposedT(0) {
		t.Fatal("nonzero κ should produce a distinct throttled matrix")
	}
}

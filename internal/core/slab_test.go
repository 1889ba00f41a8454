package core

import (
	"math"
	"testing"

	"sourcerank/internal/linalg"
)

// TestRankSlabBitwiseIdentical pins Config.SlabDir to the in-memory
// path: every solver × precision combination must produce byte-identical
// scores whether the throttled transpose is iterated from the heap or
// from a memory-mapped slab, with and without a residency budget.
func TestRankSlabBitwiseIdentical(t *testing.T) {
	sg := buildSG(t, corpus(t))
	kappa := make([]float64, sg.NumSources())
	kappa[4], kappa[5] = 1, 1

	for _, solver := range []Solver{Power, Jacobi} {
		for _, prec := range []linalg.Precision{linalg.Float64, linalg.Float32} {
			base := Config{Solver: solver, Precision: prec, Workers: 2}
			ref, err := Rank(sg, kappa, base)
			if err != nil {
				t.Fatalf("in-memory (solver=%v prec=%v): %v", solver, prec, err)
			}
			for _, maxResident := range []int64{0, 4096} {
				cfg := base
				cfg.SlabDir = t.TempDir()
				cfg.MaxResident = maxResident
				got, err := Rank(sg, kappa, cfg)
				if err != nil {
					t.Fatalf("slab (solver=%v prec=%v res=%d): %v", solver, prec, maxResident, err)
				}
				if got.Stats.Iterations != ref.Stats.Iterations {
					t.Fatalf("solver=%v prec=%v: iteration count diverges", solver, prec)
				}
				for i := range ref.Scores {
					if math.Float64bits(ref.Scores[i]) != math.Float64bits(got.Scores[i]) {
						t.Fatalf("solver=%v prec=%v res=%d: score %d bits diverge",
							solver, prec, maxResident, i)
					}
				}
			}
		}
	}
}

// TestPipelineSlabBitwiseIdentical runs the whole pipeline (proximity,
// κ assignment, solve) with a slab-backed final solve.
func TestPipelineSlabBitwiseIdentical(t *testing.T) {
	sg := buildSG(t, corpus(t))
	mk := func(slabDir string) PipelineConfig {
		cfg := PipelineConfig{SpamSeeds: []int32{4}, TopK: 2}
		cfg.SlabDir = slabDir
		cfg.MaxResident = 1024
		return cfg
	}
	ref, err := Pipeline(sg, mk(""))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Pipeline(sg, mk(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Scores {
		if math.Float64bits(ref.Scores[i]) != math.Float64bits(got.Scores[i]) {
			t.Fatalf("pipeline score %d diverges under slab backing", i)
		}
	}
}

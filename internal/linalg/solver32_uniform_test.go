package linalg

import (
	"math"
	"path/filepath"
	"testing"
)

// TestPowerMethodT32UniformMatchesExplicit pins the float32 implicit
// uniform teleport against the materialized path: at every worker count
// the uniform solve must reproduce PowerMethodT with a dense uniform
// teleport bit for bit, including the iteration count.
func TestPowerMethodT32UniformMatchesExplicit(t *testing.T) {
	forceFusedParallel(t)
	n := 240
	pt := randChain(t, 59, n).TransposeParallel(1)
	pt32 := NewCSR32(pt)
	want, wantSt, err := PowerMethodT(pt32, 0.85, NewUniformVector(n), nil, SolverOptions{})
	if err != nil || !wantSt.Converged {
		t.Fatalf("explicit solve: %v %+v", err, wantSt)
	}
	for _, workers := range []int{1, 2, 4} {
		got, st, err := PowerMethodTUniform(pt32, 0.85, SolverOptions{Workers: workers})
		if err != nil || !st.Converged {
			t.Fatalf("workers=%d uniform solve: %v %+v", workers, err, st)
		}
		if st.Iterations != wantSt.Iterations {
			t.Fatalf("workers=%d: %d iterations, explicit took %d", workers, st.Iterations, wantSt.Iterations)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("workers=%d: score %d diverges from explicit solve", workers, i)
			}
		}
	}
}

// TestPowerMethodT32UniformSlabBitwise closes the out-of-core loop: the
// implicit-uniform float32 solve over a residency-capped slab — the
// exact configuration cmd/bench runs — must reproduce the in-heap
// explicit-teleport solve bit for bit at every worker count.
func TestPowerMethodT32UniformSlabBitwise(t *testing.T) {
	forceFusedParallel(t)
	n := 250
	pt := randChain(t, 61, n).TransposeParallel(1)
	want, wantSt, err := PowerMethodT(NewCSR32(pt), 0.85, NewUniformVector(n), nil, SolverOptions{})
	if err != nil || !wantSt.Converged {
		t.Fatalf("in-heap solve: %v %+v", err, wantSt)
	}
	path := filepath.Join(t.TempDir(), "pt32.slab")
	if err := WriteSlabCSR(nil, path, pt, Float32); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		sm, err := OpenSlab[float32](path, SlabOpenOptions{MaxResident: 4096})
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := PowerMethodTUniform(sm.Matrix(), 0.85, SolverOptions{Workers: workers})
		if err != nil || !st.Converged {
			t.Fatalf("workers=%d slab solve: %v %+v", workers, err, st)
		}
		if st.Iterations != wantSt.Iterations {
			t.Fatalf("workers=%d: %d iterations, in-heap took %d", workers, st.Iterations, wantSt.Iterations)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("workers=%d: score %d diverges from in-heap solve", workers, i)
			}
		}
		sm.Close()
	}
}

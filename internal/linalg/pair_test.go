package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// pairResult is what JacobiAffineTPair hands done for one system, and when.
type pairResult struct {
	x     Vector
	st    IterStats
	order int
}

// solvePair runs JacobiAffineTPair and returns each system's result with
// the order done saw it in.
func solvePair(t *testing.T, at *CSR, b, x0 [2]Vector, opt SolverOptions) [2]pairResult {
	t.Helper()
	var out [2]pairResult
	calls := 0
	err := JacobiAffineTPair(at, 0.85, b, x0, opt, func(j int, x Vector, st IterStats) {
		if out[j].x != nil {
			t.Fatalf("system %d handed over twice", j)
		}
		out[j] = pairResult{x, st, calls}
		calls++
	})
	if err != nil || calls != 2 {
		t.Fatalf("paired solve: %v after %d systems", err, calls)
	}
	return out
}

// TestJacobiAffineTPairBitwise: each system of a paired solve is bitwise
// its solo JacobiAffineT — every score, the residual, the iteration count
// and convergence — at 1 to 4 workers over a multi-stripe partition, with
// the Go and the AVX2 row sums, cold and warm, with either system
// finishing first, finishing together, and with one system stopped by
// MaxIter while the other converges and continues alone.
func TestJacobiAffineTPairBitwise(t *testing.T) {
	forceFusedParallel(t)
	const n = 300
	at := randChain(t, 5, n).TransposeParallel(1)
	uniform, trust := NewUniformVector(n), NewVector(n)
	for _, s := range []int{3, 40, 41, 299} {
		trust[s] = 0.25
	}
	uniform.Scale(0.15)
	trust.Scale(0.15)
	random := func(seed int64) Vector {
		rng := rand.New(rand.NewSource(seed))
		v := NewVector(n)
		for i := range v {
			v[i] = rng.Float64()
		}
		v.Normalize1()
		return v
	}
	fixed := func(b Vector) Vector {
		x, _, err := JacobiAffineT(at, 0.85, b, nil, SolverOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	prFixed, trFixed := fixed(uniform), fixed(trust)
	for _, tc := range []struct {
		name   string
		b      [2]Vector
		x0     [2]Vector
		max    int
		first  int // the system done must see first; -1 when either may
		capped int // the system MaxIter stops; -1 for none
	}{
		{"cold", [2]Vector{uniform, trust}, [2]Vector{}, 0, -1, -1},
		{"cold, same bias", [2]Vector{trust, trust}, [2]Vector{}, 0, 0, -1},
		{"warm", [2]Vector{uniform, trust}, [2]Vector{random(1), random(2)}, 0, -1, -1},
		{"first system first", [2]Vector{uniform, trust}, [2]Vector{prFixed, nil}, 0, 0, -1},
		{"second system first", [2]Vector{uniform, trust}, [2]Vector{random(3), trFixed}, 0, 1, -1},
		{"second system capped", [2]Vector{uniform, trust}, [2]Vector{prFixed, random(4)}, 12, 0, 1},
		{"first system capped", [2]Vector{uniform, trust}, [2]Vector{nil, trFixed}, 12, 1, 0},
	} {
		opt := SolverOptions{MaxIter: tc.max}
		var solo [2]pairResult
		for j := range solo {
			x, st, err := JacobiAffineT(at, 0.85, tc.b[j], tc.x0[j], opt)
			if err != nil {
				t.Fatal(err)
			}
			solo[j] = pairResult{x: x, st: st}
			if capped := !st.Converged; capped != (tc.capped == j) {
				t.Fatalf("%s: solo system %d converged %v in %d iterations; the case wants capped = system %d", tc.name, j, st.Converged, st.Iterations, tc.capped)
			}
		}
		eachRowSumsImpl(func(impl string) {
			for workers := 1; workers <= 4; workers++ {
				opt.Workers = workers
				what := fmt.Sprintf("%s, %s row sums, %d workers", tc.name, impl, workers)
				got := solvePair(t, at, tc.b, tc.x0, opt)
				if tc.first >= 0 && got[tc.first].order != 0 {
					t.Errorf("%s: system %d was not handed over first", what, tc.first)
				}
				for j := range got {
					if got[j].st != solo[j].st {
						t.Fatalf("%s: system %d stats %+v, solo %+v", what, j, got[j].st, solo[j].st)
					}
					for i := range solo[j].x {
						if math.Float64bits(got[j].x[i]) != math.Float64bits(solo[j].x[i]) {
							t.Fatalf("%s: system %d score %d is %v, solo %v", what, j, i, got[j].x[i], solo[j].x[i])
						}
					}
				}
			}
		})
	}
}

// TestJacobiAffineTPairErrors: the pair rejects what JacobiAffineT rejects.
func TestJacobiAffineTPairErrors(t *testing.T) {
	at := randChain(t, 8, 10).TransposeParallel(1)
	u, short := NewUniformVector(10), NewUniformVector(9)
	none := func(int, Vector, IterStats) { t.Fatal("a rejected solve handed a system over") }
	for _, tc := range []struct {
		b, x0 [2]Vector
	}{
		{[2]Vector{u, short}, [2]Vector{}},
		{[2]Vector{short, u}, [2]Vector{}},
		{[2]Vector{u, u}, [2]Vector{nil, short}},
	} {
		if err := JacobiAffineTPair(at, 0.85, tc.b, tc.x0, SolverOptions{}, none); err != ErrDimension {
			t.Errorf("mismatched operands: %v, want ErrDimension", err)
		}
	}
}

// TestFusedPairStepZeroAlloc: a pair kernel's step allocates nothing, as
// the solo kernel's does.
func TestFusedPairStepZeroAlloc(t *testing.T) {
	forceFusedParallel(t)
	at := randChain(t, 21, 512).TransposeParallel(1)
	b := NewUniformVector(512)
	k, err := newFusedKernel(at, 0.85, b, true, ResidualL2, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	k.cols, k.aux2, k.partial = 2, b, make([]float64, 2*len(k.partial)) // as JacobiAffineTPair sets it
	src, dst := NewUniformVector(1024), NewVector(1024)
	k.sweep(dst, src) // warm up
	if n := testing.AllocsPerRun(50, func() {
		k.sweep(dst, src)
		k.sweep(src, dst)
		k.reduceResidual(0)
		k.reduceResidual(1)
	}); n != 0 {
		t.Fatalf("pair step allocated %v times per run", n)
	}
}

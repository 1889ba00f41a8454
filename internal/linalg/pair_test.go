package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// pairResult is what PowerMethodTPair hands done for one chain, and when.
type pairResult struct {
	x     Vector
	st    IterStats
	order int
}

// solvePair runs PowerMethodTPair and returns each chain's result with the
// order done saw it in.
func solvePair(t *testing.T, pt *CSR, tel, x0 [2]Vector, opt SolverOptions) [2]pairResult {
	t.Helper()
	var out [2]pairResult
	calls := 0
	err := PowerMethodTPair(pt, 0.85, tel, x0, opt, func(j int, x Vector, st IterStats) {
		if out[j].x != nil {
			t.Fatalf("chain %d handed over twice", j)
		}
		out[j] = pairResult{x, st, calls}
		calls++
	})
	if err != nil || calls != 2 {
		t.Fatalf("paired solve: %v after %d chains", err, calls)
	}
	return out
}

// TestPowerMethodTPairBitwise: each chain of a paired solve is bitwise its
// solo PowerMethodT — every score, the residual, the iteration count and
// convergence — at 1 to 4 workers over a multi-stripe partition, with the
// Go and the AVX2 row sums, cold and warm, with either chain finishing
// first, finishing together, and with one chain stopped by MaxIter while
// the other converges.
func TestPowerMethodTPairBitwise(t *testing.T) {
	forceFusedParallel(t)
	const n = 300
	pt := randChain(t, 5, n).Transpose()
	uniform, trust := NewUniformVector(n), NewVector(n)
	for _, s := range []int{3, 40, 41, 299} {
		trust[s] = 0.25
	}
	random := func(seed int64) Vector {
		rng := rand.New(rand.NewSource(seed))
		v := NewVector(n)
		for i := range v {
			v[i] = rng.Float64()
		}
		v.Normalize1()
		return v
	}
	fixed := func(tel Vector) Vector {
		x, _, err := PowerMethodT(pt, 0.85, tel, nil, SolverOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	prFixed, trFixed := fixed(uniform), fixed(trust)
	for _, tc := range []struct {
		name   string
		tel    [2]Vector
		x0     [2]Vector
		max    int
		first  int // the chain done must see first; -1 when either may
		capped int // the chain MaxIter stops; -1 for none
	}{
		{"cold", [2]Vector{uniform, trust}, [2]Vector{}, 0, -1, -1},
		{"cold, same teleport", [2]Vector{trust, trust}, [2]Vector{}, 0, 0, -1},
		{"warm", [2]Vector{uniform, trust}, [2]Vector{random(1), random(2)}, 0, -1, -1},
		{"pagerank first", [2]Vector{uniform, trust}, [2]Vector{prFixed, nil}, 0, 0, -1},
		{"trustrank first", [2]Vector{uniform, trust}, [2]Vector{random(3), trFixed}, 0, 1, -1},
		{"trustrank capped", [2]Vector{uniform, trust}, [2]Vector{prFixed, random(4)}, 12, 0, 1},
		{"pagerank capped", [2]Vector{uniform, trust}, [2]Vector{nil, trFixed}, 12, 1, 0},
	} {
		opt := SolverOptions{MaxIter: tc.max}
		var solo [2]pairResult
		for j := range solo {
			x, st, err := PowerMethodT(pt, 0.85, tc.tel[j], tc.x0[j], opt)
			if err != nil {
				t.Fatal(err)
			}
			solo[j] = pairResult{x: x, st: st}
			if capped := !st.Converged; capped != (tc.capped == j) {
				t.Fatalf("%s: solo chain %d converged %v in %d iterations; the case wants capped = chain %d", tc.name, j, st.Converged, st.Iterations, tc.capped)
			}
		}
		eachRowSumsImpl(func(impl string) {
			for workers := 1; workers <= 4; workers++ {
				opt.Workers = workers
				what := fmt.Sprintf("%s, %s row sums, %d workers", tc.name, impl, workers)
				got := solvePair(t, pt, tc.tel, tc.x0, opt)
				if tc.first >= 0 && got[tc.first].order != 0 {
					t.Errorf("%s: chain %d was not handed over first", what, tc.first)
				}
				for j := range got {
					if got[j].st != solo[j].st {
						t.Fatalf("%s: chain %d stats %+v, solo %+v", what, j, got[j].st, solo[j].st)
					}
					for i := range solo[j].x {
						if math.Float64bits(got[j].x[i]) != math.Float64bits(solo[j].x[i]) {
							t.Fatalf("%s: chain %d score %d is %v, solo %v", what, j, i, got[j].x[i], solo[j].x[i])
						}
					}
				}
			}
		})
	}
}

// TestPowerMethodTPairErrors: the pair rejects what PowerMethodT rejects.
func TestPowerMethodTPairErrors(t *testing.T) {
	pt := randChain(t, 8, 10).Transpose()
	u, short := NewUniformVector(10), NewUniformVector(9)
	none := func(int, Vector, IterStats) { t.Fatal("a rejected solve handed a chain over") }
	for _, tc := range []struct {
		tel, x0 [2]Vector
	}{
		{[2]Vector{u, short}, [2]Vector{}},
		{[2]Vector{short, u}, [2]Vector{}},
		{[2]Vector{u, u}, [2]Vector{nil, short}},
	} {
		if err := PowerMethodTPair(pt, 0.85, tc.tel, tc.x0, SolverOptions{}, none); err != ErrDimension {
			t.Errorf("mismatched operands: %v, want ErrDimension", err)
		}
	}
}

// TestFusedPairStepZeroAlloc: a pair kernel's step allocates nothing, as
// the solo kernel's does.
func TestFusedPairStepZeroAlloc(t *testing.T) {
	forceFusedParallel(t)
	pt := randChain(t, 21, 512).Transpose()
	k, err := newFusedPair(pt, 0.85, NewUniformVector(512), NewUniformVector(512), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
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

package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// scalarAffine solves the one-variable system x = c·x + b, whose Jacobi
// iteration is the scalar map x → c·x + b started at b: the smallest
// fixture that drives the shared fixed-point driver.
func scalarAffine(t *testing.T, c, b float64, opt SolverOptions) (Vector, IterStats, error) {
	t.Helper()
	return JacobiAffineT(mustCSR(t, 1, 1, []Entry{{0, 0, 1}}), c, Vector{b}, nil, opt)
}

// powerMethod is PowerMethodT on the forward chain p.
func powerMethod(p *CSR, c float64, t, x0 Vector, opt SolverOptions) (Vector, IterStats, error) {
	if p.Rows != p.ColsN {
		return nil, IterStats{}, ErrDimension
	}
	return PowerMethodT(p.TransposeParallel(1), c, t, x0, opt)
}

func TestFixedPointConverges(t *testing.T) {
	// x -> x/2 + 1 converges to 2.
	x, st, err := scalarAffine(t, 0.5, 1, SolverOptions{Tol: 1e-12, MaxIter: 200})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("did not converge: %+v", st)
	}
	if math.Abs(x[0]-2) > 1e-10 {
		t.Errorf("fixed point = %v, want 2", x[0])
	}
}

func TestFixedPointMaxIter(t *testing.T) {
	// x -> x+1 never converges.
	_, st, err := scalarAffine(t, 1, 1, SolverOptions{Tol: 1e-9, MaxIter: 17})
	if err != nil {
		t.Fatal(err)
	}
	if st.Converged {
		t.Error("diverging iteration reported converged")
	}
	if st.Iterations != 17 {
		t.Errorf("iterations = %d, want 17", st.Iterations)
	}
}

// twoStateChain returns the row-stochastic matrix
// [[1-p, p], [q, 1-q]] whose stationary distribution is
// (q/(p+q), p/(p+q)).
func twoStateChain(t *testing.T, p, q float64) *CSR {
	t.Helper()
	return mustCSR(t, 2, 2, []Entry{
		{0, 0, 1 - p}, {0, 1, p},
		{1, 0, q}, {1, 1, 1 - q},
	})
}

func TestPowerMethodNoTeleport(t *testing.T) {
	// With c=1 (no teleportation) the power method should find the exact
	// stationary distribution of an aperiodic irreducible chain.
	p, q := 0.3, 0.6
	m := twoStateChain(t, p, q)
	tele := NewUniformVector(2)
	x, st, err := powerMethod(m, 1.0, tele, nil, SolverOptions{Tol: 1e-13, MaxIter: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("not converged: %+v", st)
	}
	want0 := q / (p + q)
	if math.Abs(x[0]-want0) > 1e-9 {
		t.Errorf("stationary[0] = %v, want %v", x[0], want0)
	}
	if math.Abs(x.Norm1()-1) > 1e-9 {
		t.Errorf("sum = %v, want 1", x.Norm1())
	}
}

func TestPowerMethodDanglingRow(t *testing.T) {
	// Node 1 has no out-edges; its mass must be redistributed via the
	// teleport vector so the result still sums to 1.
	m := mustCSR(t, 2, 2, []Entry{{0, 1, 1}})
	tele := NewUniformVector(2)
	x, st, err := powerMethod(m, 0.85, tele, nil, SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("not converged: %+v", st)
	}
	if math.Abs(x.Norm1()-1) > 1e-8 {
		t.Errorf("sum = %v, want 1", x.Norm1())
	}
	if x[1] <= x[0] {
		t.Errorf("node 1 should outrank node 0: %v", x)
	}
}

func TestPowerMethodDimensionErrors(t *testing.T) {
	m := mustCSR(t, 2, 3, nil)
	if _, _, err := powerMethod(m, 0.85, NewUniformVector(2), nil, SolverOptions{}); err == nil {
		t.Error("non-square matrix accepted")
	}
	sq := mustCSR(t, 2, 2, nil)
	if _, _, err := powerMethod(sq, 0.85, NewUniformVector(3), nil, SolverOptions{}); err == nil {
		t.Error("wrong teleport length accepted")
	}
	if _, _, err := powerMethod(sq, 0.85, NewUniformVector(2), NewVector(5), SolverOptions{}); err == nil {
		t.Error("wrong x0 length accepted")
	}
}

func TestJacobiAffineMatchesClosedForm(t *testing.T) {
	// Solve x = c·Aᵀx + b for a 1x1 system: x = c·a·x + b => x = b/(1-c·a).
	m := mustCSR(t, 1, 1, []Entry{{0, 0, 0.5}})
	b := Vector{1}
	x, st, err := JacobiAffineT(m.TransposeParallel(1), 0.8, b, nil, SolverOptions{Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("not converged: %+v", st)
	}
	want := 1 / (1 - 0.8*0.5)
	if math.Abs(x[0]-want) > 1e-9 {
		t.Errorf("x = %v, want %v", x[0], want)
	}
}

func TestJacobiAffineDimensionError(t *testing.T) {
	m := mustCSR(t, 2, 3, nil)
	if _, _, err := JacobiAffineT(m.TransposeParallel(1), 0.5, NewVector(2), nil, SolverOptions{}); err == nil {
		t.Error("non-square matrix accepted")
	}
}

func TestJacobiMatchesPowerMethodOnStochasticChain(t *testing.T) {
	// For a fully stochastic chain with uniform teleportation, the linear
	// system x = α·Pᵀx + (1-α)/n solves the same stationary equation the
	// power method does (up to normalization).
	rng := rand.New(rand.NewSource(11))
	n := 30
	entries := []Entry{}
	for i := 0; i < n; i++ {
		deg := 1 + rng.Intn(5)
		targets := map[int]bool{}
		for len(targets) < deg {
			targets[rng.Intn(n)] = true
		}
		for j := range targets {
			entries = append(entries, Entry{i, j, 1 / float64(deg)})
		}
	}
	m := mustCSR(t, n, n, entries)
	alpha := 0.85
	tele := NewUniformVector(n)
	pm, st1, err := powerMethod(m, alpha, tele, nil, SolverOptions{Tol: 1e-12})
	if err != nil || !st1.Converged {
		t.Fatalf("power method: %v %+v", err, st1)
	}
	b := tele.Clone()
	b.Scale(1 - alpha)
	jac, st2, err := JacobiAffineT(m.TransposeParallel(1), alpha, b, nil, SolverOptions{Tol: 1e-14})
	if err != nil || !st2.Converged {
		t.Fatalf("jacobi: %v %+v", err, st2)
	}
	jac.Normalize1()
	if d := L2Distance(pm, jac); d > 1e-8 {
		t.Errorf("power vs jacobi differ by %g", d)
	}
}

// Property: power-method output is always a probability distribution for
// random stochastic chains and any damping in (0,1).
func TestQuickPowerMethodIsDistribution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		entries := []Entry{}
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.2 {
				continue // dangling row
			}
			deg := 1 + rng.Intn(4)
			if deg > n {
				deg = n
			}
			seen := map[int]bool{}
			for len(seen) < deg {
				seen[rng.Intn(n)] = true
			}
			for j := range seen {
				entries = append(entries, Entry{i, j, 1 / float64(deg)})
			}
		}
		m, err := NewCSR(n, n, entries)
		if err != nil {
			return false
		}
		alpha := 0.5 + rng.Float64()*0.45
		x, _, err := powerMethod(m, alpha, NewUniformVector(n), nil, SolverOptions{Tol: 1e-10})
		if err != nil {
			return false
		}
		if math.Abs(x.Norm1()-1) > 1e-6 {
			return false
		}
		for _, v := range x {
			if v < -1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func stochasticChain(t *testing.T, rng *rand.Rand, n int) *CSR {
	t.Helper()
	entries := []Entry{}
	for i := 0; i < n; i++ {
		deg := 1 + rng.Intn(4)
		if deg > n {
			deg = n
		}
		seen := map[int]bool{}
		for len(seen) < deg {
			seen[rng.Intn(n)] = true
		}
		for j := range seen {
			entries = append(entries, Entry{i, j, 1 / float64(deg)})
		}
	}
	m, err := NewCSR(n, n, entries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestExtraSolversEmptyMatrix: a 0x0 system converges immediately to an
// empty vector instead of erroring or panicking, over an empty transpose
// as well.
func TestExtraSolversEmptyMatrix(t *testing.T) {
	m := mustCSR(t, 0, 0, nil)
	x, st, err := JacobiAffineT(m.TransposeParallel(1), 0.85, Vector{}, nil, SolverOptions{})
	if err != nil || !st.Converged || len(x) != 0 {
		t.Fatalf("jacobi on empty: %v %+v len=%d", err, st, len(x))
	}
	x, st, err = JacobiAffineT(NewCSR32(m).TransposeParallel(1), 0.85, Vector{}, nil, SolverOptions{})
	if err != nil || !st.Converged || len(x) != 0 {
		t.Fatalf("float32 jacobi on empty: %v %+v len=%d", err, st, len(x))
	}
	if _, _, err := PowerMethodTUniform(m, 0.85, SolverOptions{}); err != ErrDimension {
		t.Fatalf("uniform teleport over no rows: err=%v, want ErrDimension", err)
	}
}

// TestExtraSolversDeterministicAcrossWorkers: the entry points that are
// not the page-level hot path — the Jacobi solve over a transpose
// materialized with the solve's worker count, and the implicit-teleport
// power solve — must be bitwise worker-count-invariant like the main
// ones, at both value types.
func TestExtraSolversDeterministicAcrossWorkers(t *testing.T) {
	forceFusedParallel(t)
	rng := rand.New(rand.NewSource(77))
	m := stochasticChain(t, rng, 60)
	mt32 := NewCSR32(m.TransposeParallel(1))
	b := NewUniformVector(60)
	b.Scale(0.15)
	solves := []func(workers int) (Vector, IterStats, error){
		func(w int) (Vector, IterStats, error) {
			return JacobiAffineT(m.TransposeParallel(w), 0.85, b, nil, SolverOptions{Tol: 1e-12, Workers: w})
		},
		func(w int) (Vector, IterStats, error) {
			return JacobiAffineT(NewCSR32(m).TransposeParallel(w), 0.85, b, nil, SolverOptions{Workers: w})
		},
		func(w int) (Vector, IterStats, error) {
			return PowerMethodTUniform(mt32, 0.85, SolverOptions{Workers: w})
		},
	}
	for si, solve := range solves {
		ref, refSt, err := solve(1)
		if err != nil || !refSt.Converged {
			t.Fatalf("solve %d ref: %v %+v", si, err, refSt)
		}
		for w := 2; w <= 16; w++ {
			got, st, err := solve(w)
			if err != nil || st != refSt {
				t.Fatalf("solve %d workers=%d: %v %+v, workers=1 %+v", si, w, err, st, refSt)
			}
			sameBits(t, fmt.Sprintf("solve %d workers=%d", si, w), ref, got)
		}
	}
}

// TestExtraSolversAbsorbingRows: fully-throttled sources (κ=1) become
// pure self-loops under throttle.Apply. On such a matrix the linear
// solver must agree with the power method and the absorbing sources must
// accumulate strictly more than their teleport share (they receive
// in-links but give nothing back).
func TestExtraSolversAbsorbingRows(t *testing.T) {
	const n, alpha = 20, 0.85
	entries := []Entry{
		{0, 0, 1}, // κ=1: absorbing
		{1, 1, 1}, // κ=1: absorbing
	}
	for i := 2; i < n; i++ {
		// Every untouched row splits between an absorbing row and the chain.
		entries = append(entries,
			Entry{i, i % 2, 0.5},
			Entry{i, 2 + (i-1)%(n-2), 0.5})
	}
	m, err := NewCSR(n, n, entries)
	if err != nil {
		t.Fatal(err)
	}
	tele := NewUniformVector(n)
	b := tele.Clone()
	b.Scale(1 - alpha)

	want, st, err := PowerMethodT(m.TransposeParallel(1), alpha, tele, nil, SolverOptions{Tol: 1e-12})
	if err != nil || !st.Converged {
		t.Fatalf("power: %v %+v", err, st)
	}
	jac, st2, err := JacobiAffineT(m.TransposeParallel(1), alpha, b, nil, SolverOptions{Tol: 1e-12})
	if err != nil || !st2.Converged {
		t.Fatalf("jacobi: %v %+v", err, st2)
	}
	jac.Normalize1()
	if d := L2Distance(want, jac); d > 1e-8 {
		t.Errorf("jacobi differs from power by %g", d)
	}
	for i := 0; i < 2; i++ {
		if want[i] <= tele[i] {
			t.Errorf("absorbing row %d scored %g, want > teleport share %g", i, want[i], tele[i])
		}
	}
}

func TestGini(t *testing.T) {
	if g := Gini(NewUniformVector(100)); math.Abs(g) > 1e-9 {
		t.Errorf("uniform Gini = %v, want 0", g)
	}
	// All mass on one entry of n: Gini -> (n-1)/n.
	v := NewVector(100)
	v[7] = 1
	if g := Gini(v); math.Abs(g-0.99) > 1e-9 {
		t.Errorf("point-mass Gini = %v, want 0.99", g)
	}
	if g := Gini(Vector{}); g != 0 {
		t.Errorf("empty Gini = %v", g)
	}
	if g := Gini(NewVector(5)); g != 0 {
		t.Errorf("zero-vector Gini = %v", g)
	}
}

// TestGiniBitwiseRegression pins Gini's exact output bits on pinned
// pseudo-random vectors. The sorted prefix-sum is evaluated in ascending
// index order, so the result must not depend on the sort algorithm (the
// insertion/quick hybrid was replaced by slices.Sort without moving a
// bit); any future change to the sort or the accumulation order that
// perturbs even the last ulp fails here.
func TestGiniBitwiseRegression(t *testing.T) {
	golden := map[int]uint64{
		1:    0x0000000000000000,
		7:    0x3fd5241f119a1d80,
		100:  0x3fd475dc02f43168,
		4097: 0x3fd58fa0d984f320,
	}
	for _, n := range []int{1, 7, 100, 4097} {
		v := NewVector(n)
		s := uint64(0x9e3779b97f4a7c15)
		for i := range v {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			v[i] = float64(s%1000000) / 1000000
		}
		if got := math.Float64bits(Gini(v)); got != golden[n] {
			t.Errorf("n=%d: Gini bits %#016x, want %#016x", n, got, golden[n])
		}
	}
}

func TestGiniDoesNotMutate(t *testing.T) {
	v := Vector{3, 1, 2}
	Gini(v)
	if v[0] != 3 || v[1] != 1 || v[2] != 2 {
		t.Errorf("Gini mutated input: %v", v)
	}
}

// Property: Gini is in [0, 1) and scale-invariant.
func TestQuickGiniProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		v := make(Vector, n)
		for i := range v {
			v[i] = rng.Float64() * 100
		}
		g := Gini(v)
		if g < -1e-12 || g >= 1 {
			return false
		}
		w := v.Clone()
		w.Scale(7.5)
		return math.Abs(Gini(w)-g) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the linear solve and the power method agree on random
// stochastic systems.
func TestQuickSolversAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		m := stochasticChainRaw(rng, n)
		alpha := 0.5 + rng.Float64()*0.4
		b := NewUniformVector(n)
		b.Scale(1 - alpha)
		jac, st1, err1 := JacobiAffineT(m.TransposeParallel(1), alpha, b, nil, SolverOptions{Tol: 1e-13, MaxIter: 3000})
		pm, st2, err2 := powerMethod(m, alpha, NewUniformVector(n), nil, SolverOptions{Tol: 1e-13, MaxIter: 3000})
		if err1 != nil || err2 != nil || !st1.Converged || !st2.Converged {
			return false
		}
		jac.Normalize1()
		return L2Distance(jac, pm) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func stochasticChainRaw(rng *rand.Rand, n int) *CSR {
	entries := []Entry{}
	for i := 0; i < n; i++ {
		deg := 1 + rng.Intn(4)
		if deg > n {
			deg = n
		}
		seen := map[int]bool{}
		for len(seen) < deg {
			seen[rng.Intn(n)] = true
		}
		for j := range seen {
			entries = append(entries, Entry{i, j, 1 / float64(deg)})
		}
	}
	m, err := NewCSR(n, n, entries)
	if err != nil {
		panic(err)
	}
	return m
}

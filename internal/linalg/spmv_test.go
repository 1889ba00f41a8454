package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMulVecSmall(t *testing.T) {
	// [1 2; 0 3] * [4; 5] = [14; 15]
	m := mustCSR(t, 2, 2, []Entry{{0, 0, 1}, {0, 1, 2}, {1, 1, 3}})
	x := Vector{4, 5}
	dst := NewVector(2)
	MulVec(m, x, dst)
	if dst[0] != 14 || dst[1] != 15 {
		t.Errorf("MulVec = %v, want [14 15]", dst)
	}
}

func TestMulVecPanicsOnMismatch(t *testing.T) {
	m := mustCSR(t, 2, 3, nil)
	defer func() {
		if recover() == nil {
			t.Error("no panic on bad x length")
		}
	}()
	MulVec(m, NewVector(2), NewVector(2))
}

func TestMulVecParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		rows := 1 + rng.Intn(500)
		cols := 1 + rng.Intn(500)
		m := randomCSR(rng, rows, cols, rng.Intn(5000))
		x := NewVector(cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		serial := NewVector(rows)
		MulVec(m, x, serial)
		for _, workers := range []int{1, 2, 3, 8, 64} {
			par := NewVector(rows)
			MulVecParallel(m, x, par, workers)
			if d := L2Distance(serial, par); d > 1e-12 {
				t.Fatalf("trial %d workers %d: parallel differs by %g", trial, workers, d)
			}
		}
	}
}

func TestMulVecParallelDefaultWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randomCSR(rng, 1000, 1000, 20000)
	x := NewVector(1000)
	for i := range x {
		x[i] = rng.Float64()
	}
	serial := NewVector(1000)
	par := NewVector(1000)
	MulVec(m, x, serial)
	MulVecParallel(m, x, par, 0) // auto
	if d := L2Distance(serial, par); d > 1e-12 {
		t.Fatalf("auto workers differ by %g", d)
	}
}

func TestPartitionRowsByNNZ(t *testing.T) {
	// One very heavy row followed by light rows: boundaries must respect
	// nonzero counts.
	entries := []Entry{}
	for j := 0; j < 100; j++ {
		entries = append(entries, Entry{0, j, 1})
	}
	for i := 1; i < 10; i++ {
		entries = append(entries, Entry{i, 0, 1})
	}
	m := mustCSR(t, 10, 100, entries)
	bounds := partitionRowsByNNZ(m, 2)
	if len(bounds) != 3 {
		t.Fatalf("bounds = %v", bounds)
	}
	if bounds[0] != 0 || bounds[2] != 10 {
		t.Fatalf("outer bounds wrong: %v", bounds)
	}
	// The heavy row alone is ~91% of the mass, so the split should fall
	// right after row 0.
	if bounds[1] != 1 {
		t.Errorf("split at %d, want 1", bounds[1])
	}
}

func TestPartitionEmptyMatrix(t *testing.T) {
	m := mustCSR(t, 8, 8, nil)
	bounds := partitionRowsByNNZ(m, 4)
	if bounds[0] != 0 || bounds[4] != 8 {
		t.Fatalf("bounds = %v", bounds)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] < bounds[i-1] {
			t.Fatalf("non-monotone bounds %v", bounds)
		}
	}
}

// Property: MulVec is linear: M(a·x + y) = a·Mx + My.
func TestQuickMulVecLinearity(t *testing.T) {
	f := func(seed int64, a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			a = 1
		}
		a = math.Mod(a, 100)
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		m := randomCSR(rng, n, n, rng.Intn(200))
		x, y := NewVector(n), NewVector(n)
		for i := 0; i < n; i++ {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		// lhs = M(a·x + y)
		combo := x.Clone()
		combo.Scale(a)
		axpy(combo, 1, y)
		lhs := NewVector(n)
		MulVec(m, combo, lhs)
		// rhs = a·Mx + My
		mx, my := NewVector(n), NewVector(n)
		MulVec(m, x, mx)
		MulVec(m, y, my)
		mx.Scale(a)
		axpy(mx, 1, my)
		return L2Distance(lhs, mx) <= 1e-7*(1+mx.Norm2())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

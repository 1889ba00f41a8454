package linalg

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// randCSR builds a deterministic random sparse matrix with roughly nnz
// entries, including duplicate coordinates so coalescing is exercised.
func randCSR(t testing.TB, seed int64, rows, cols, nnz int) *CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	entries := make([]Entry, 0, nnz)
	for i := 0; i < nnz; i++ {
		entries = append(entries, Entry{
			Row: rng.Intn(rows),
			Col: rng.Intn(cols),
			Val: rng.NormFloat64(),
		})
	}
	m, err := NewCSR(rows, cols, entries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// hubCSR builds a matrix where one row holds frac of all nonzeros.
func hubCSR(t testing.TB, rows, cols, nnz int, frac float64) *CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	entries := make([]Entry, 0, nnz)
	hub := int(float64(nnz) * frac)
	if hub > cols {
		hub = cols
	}
	for c := 0; c < hub; c++ {
		entries = append(entries, Entry{Row: 0, Col: c, Val: rng.NormFloat64()})
	}
	for len(entries) < nnz {
		entries = append(entries, Entry{Row: 1 + rng.Intn(rows-1), Col: rng.Intn(cols), Val: rng.NormFloat64()})
	}
	m, err := NewCSR(rows, cols, entries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func sameCSR[F Float](t *testing.T, name string, a, b *Matrix[F]) {
	t.Helper()
	if a.Rows != b.Rows || a.ColsN != b.ColsN {
		t.Fatalf("%s: shape (%d,%d) != (%d,%d)", name, a.Rows, a.ColsN, b.Rows, b.ColsN)
	}
	if !reflect.DeepEqual(a.RowPtr, b.RowPtr) {
		t.Fatalf("%s: RowPtr differs", name)
	}
	if !reflect.DeepEqual(a.Cols, b.Cols) {
		t.Fatalf("%s: Cols differs", name)
	}
	// DeepEqual on floats distinguishes NaN bit patterns but matches ==
	// semantics for everything the kernels produce; require exact bits.
	for i := range a.Vals {
		if a.Vals[i] != b.Vals[i] {
			t.Fatalf("%s: Vals[%d] = %v != %v", name, i, a.Vals[i], b.Vals[i])
		}
	}
	if len(a.Vals) != len(b.Vals) {
		t.Fatalf("%s: nnz %d != %d", name, len(a.Vals), len(b.Vals))
	}
}

// TestTransposeParallelBitwise checks the parallel transpose against the
// serial counting sort, bit for bit, across 1–16 workers on rectangular,
// hub-heavy, and empty matrices.
func TestTransposeParallelBitwise(t *testing.T) {
	defer func(old int) { transposeParallelMinNNZ = old }(transposeParallelMinNNZ)
	transposeParallelMinNNZ = 1 // force the parallel path even on tiny fixtures

	mats := map[string]*CSR{
		"random":      randCSR(t, 1, 300, 200, 9000),
		"tall":        randCSR(t, 2, 2000, 37, 12000),
		"wide":        randCSR(t, 3, 37, 2000, 12000),
		"hub":         hubCSR(t, 500, 500, 8000, 0.92),
		"empty":       mustCSR(t, 40, 60, nil),
		"singlerow":   randCSR(t, 4, 1, 512, 600),
		"singlecol":   randCSR(t, 5, 512, 1, 600),
		"zero-by-n":   mustCSR(t, 0, 17, nil),
		"n-by-zero":   mustCSR(t, 17, 0, nil),
		"diag-sparse": randCSR(t, 6, 4096, 4096, 4096),
	}
	for name, m := range mats {
		want := m.Transpose()
		for workers := 1; workers <= 16; workers++ {
			got := m.TransposeParallel(workers)
			sameCSR(t, name, want, got)
			if err := got.Validate(); err != nil {
				t.Fatalf("%s workers=%d: invalid transpose: %v", name, workers, err)
			}
		}
	}
}

// TestMulTVecParallelWorkerInvariant checks that the striped transpose-
// free kernel returns bitwise-identical vectors for every worker count
// (the stripe structure depends only on the matrix), and that the result
// agrees with the serial scatter to within accumulated rounding.
func TestMulTVecParallelWorkerInvariant(t *testing.T) {
	defer func(old int) { mulTVecParallelMinNNZ = old }(mulTVecParallelMinNNZ)
	mulTVecParallelMinNNZ = 1

	for _, m := range []*CSR{
		randCSR(t, 11, 400, 300, 20000),
		hubCSR(t, 300, 300, 9000, 0.95),
		randCSR(t, 12, 2, 5000, 8000),
	} {
		rng := rand.New(rand.NewSource(99))
		x := NewVector(m.Rows)
		for i := range x {
			x[i] = rng.Float64()
		}
		ref := NewVector(m.ColsN)
		MulTVecParallel(m, x, ref, 1)
		serial := NewVector(m.ColsN)
		MulTVec(m, x, serial)
		for workers := 2; workers <= 16; workers++ {
			got := NewVector(m.ColsN)
			MulTVecParallel(m, x, got, workers)
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("workers=%d: dst[%d] = %v != %v (workers=1)", workers, i, got[i], ref[i])
				}
			}
		}
		// Striped summation differs from the serial scatter only by
		// non-associativity of float addition.
		for i := range ref {
			diff := ref[i] - serial[i]
			if diff < 0 {
				diff = -diff
			}
			scale := 1.0
			if s := serial[i]; s > 1 || s < -1 {
				if s < 0 {
					s = -s
				}
				scale = s
			}
			if diff > 1e-12*scale {
				t.Fatalf("striped result drifted from serial at %d: %v vs %v", i, ref[i], serial[i])
			}
		}
	}
}

// TestMulTVecParallelMatchesTranspose cross-checks the transpose-free
// kernel against an explicit transpose multiply.
func TestMulTVecParallelMatchesTranspose(t *testing.T) {
	defer func(old int) { mulTVecParallelMinNNZ = old }(mulTVecParallelMinNNZ)
	mulTVecParallelMinNNZ = 1
	m := randCSR(t, 21, 250, 170, 10000)
	mt := m.Transpose()
	x := NewVector(m.Rows)
	rng := rand.New(rand.NewSource(5))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := NewVector(m.ColsN)
	MulVec(mt, x, want)
	got := NewVector(m.ColsN)
	MulTVecParallel(m, x, got, 4)
	for i := range got {
		diff := got[i] - want[i]
		if diff < 0 {
			diff = -diff
		}
		if diff > 1e-9 {
			t.Fatalf("dst[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestPartitionRowsByNNZEdgeCases exercises the NNZ balancer on the
// degenerate shapes the satellite checklist names.
func TestPartitionRowsByNNZEdgeCases(t *testing.T) {
	check := func(name string, m *CSR, workers int) []int {
		t.Helper()
		bounds := partitionRowsByNNZ(m, workers)
		if len(bounds) != workers+1 {
			t.Fatalf("%s: %d bounds, want %d", name, len(bounds), workers+1)
		}
		if bounds[0] != 0 || bounds[workers] != m.Rows {
			t.Fatalf("%s: bounds [%d..%d] do not cover [0,%d)", name, bounds[0], bounds[workers], m.Rows)
		}
		for w := 0; w < workers; w++ {
			if bounds[w] > bounds[w+1] {
				t.Fatalf("%s: bounds not monotone at %d: %v", name, w, bounds)
			}
		}
		return bounds
	}

	t.Run("all-empty-rows", func(t *testing.T) {
		m := mustCSR(t, 64, 64, nil)
		bounds := check("empty", m, 8)
		// Degenerate balance-by-rows: ranges must still be nonempty-ish.
		if bounds[4] != 32 {
			t.Errorf("empty matrix should split by rows, got %v", bounds)
		}
	})
	t.Run("hub-row", func(t *testing.T) {
		m := hubCSR(t, 100, 4000, 4000, 0.93)
		bounds := check("hub", m, 8)
		// The hub row holds >90% of NNZ; every boundary after the first
		// range must sit past it, i.e. the hub gets a range of its own.
		if bounds[1] < 1 {
			t.Errorf("hub row not isolated: %v", bounds)
		}
		var hubWorkers int
		for w := 0; w < 8; w++ {
			if bounds[w] == 0 && bounds[w+1] >= 1 {
				hubWorkers++
			}
		}
		if hubWorkers != 1 {
			t.Errorf("exactly one range should start at the hub, got %d (%v)", hubWorkers, bounds)
		}
	})
	t.Run("workers-exceed-rows", func(t *testing.T) {
		m := randCSR(t, 31, 3, 10, 50)
		check("few-rows", m, 16)
	})
	t.Run("single-row", func(t *testing.T) {
		m := randCSR(t, 32, 1, 100, 200)
		check("single-row", m, 4)
	})
}

// TestQuickPartitionRowsByNNZ is the property test: for random matrices
// and worker counts the bounds are monotone and cover [0, Rows).
func TestQuickPartitionRowsByNNZ(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for iter := 0; iter < 200; iter++ {
		rows := 1 + rng.Intn(200)
		cols := 1 + rng.Intn(50)
		nnz := rng.Intn(3000)
		m := randCSR(t, int64(1000+iter), rows, cols, nnz)
		workers := 1 + rng.Intn(24)
		bounds := partitionRowsByNNZ(m, workers)
		if bounds[0] != 0 || bounds[workers] != rows {
			t.Fatalf("iter %d: cover violated: %v rows=%d", iter, bounds, rows)
		}
		for w := 0; w < workers; w++ {
			if bounds[w] > bounds[w+1] {
				t.Fatalf("iter %d: monotonicity violated: %v", iter, bounds)
			}
		}
	}
}

// TestParallelKernelsRaceStress hammers the parallel transpose and the
// striped MulTVec from many goroutines sharing one matrix; run with
// -race this is the determinism/race satellite for the linalg kernels.
func TestParallelKernelsRaceStress(t *testing.T) {
	defer func(old int) { transposeParallelMinNNZ = old }(transposeParallelMinNNZ)
	defer func(old int) { mulTVecParallelMinNNZ = old }(mulTVecParallelMinNNZ)
	transposeParallelMinNNZ = 1
	mulTVecParallelMinNNZ = 1

	m := randCSR(t, 77, 600, 500, 30000)
	want := m.Transpose()
	x := NewVector(m.Rows)
	for i := range x {
		x[i] = float64(i%17) / 17
	}
	ref := NewVector(m.ColsN)
	MulTVecParallel(m, x, ref, 1)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			workers := 1 + g%16
			tr := m.TransposeParallel(workers)
			if !reflect.DeepEqual(tr.RowPtr, want.RowPtr) || !reflect.DeepEqual(tr.Cols, want.Cols) {
				t.Errorf("goroutine %d: transpose structure drifted", g)
				return
			}
			dst := NewVector(m.ColsN)
			MulTVecParallel(m, x, dst, workers)
			for i := range dst {
				if dst[i] != ref[i] {
					t.Errorf("goroutine %d: MulTVecParallel drifted at %d", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

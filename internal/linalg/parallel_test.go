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

// transposeOracle builds Mᵀ by sorting the swapped entries through
// NewCSR, sharing no code with the counting-sort transpose.
func transposeOracle(t *testing.T, m *CSR) *CSR {
	t.Helper()
	var entries []Entry
	for r := 0; r < m.Rows; r++ {
		cols, vals := m.Row(r)
		for k, c := range cols {
			entries = append(entries, Entry{Row: int(c), Col: r, Val: vals[k]})
		}
	}
	want := mustCSR(t, m.ColsN, m.Rows, entries)
	if want.Cols == nil { // the transpose allocates its empty arrays
		want.Cols, want.Vals = []int32{}, []float64{}
	}
	return want
}

// TestTransposeParallelBitwise checks the transpose against an
// independent sort-based oracle, bit for bit, across 1–16 workers with
// the parallel path forced, on rectangular, hub-heavy, and empty
// matrices.
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
		want := transposeOracle(t, m)
		for workers := 1; workers <= 16; workers++ {
			got := m.TransposeParallel(workers)
			sameCSR(t, name, want, got)
			if err := got.Validate(); err != nil {
				t.Fatalf("%s workers=%d: invalid transpose: %v", name, workers, err)
			}
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

// TestParallelKernelsRaceStress hammers the parallel transpose from many
// goroutines sharing one matrix; run with -race this is the
// determinism/race satellite for the linalg kernels.
func TestParallelKernelsRaceStress(t *testing.T) {
	defer func(old int) { transposeParallelMinNNZ = old }(transposeParallelMinNNZ)
	transposeParallelMinNNZ = 1

	m := randCSR(t, 77, 600, 500, 30000)
	want := m.Transpose()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr := m.TransposeParallel(1 + g%16)
			if !reflect.DeepEqual(tr.RowPtr, want.RowPtr) || !reflect.DeepEqual(tr.Cols, want.Cols) {
				t.Errorf("goroutine %d: transpose structure drifted", g)
			}
		}(g)
	}
	wg.Wait()
}

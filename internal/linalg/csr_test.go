package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustCSR(t *testing.T, rows, cols int, entries []Entry) *CSR {
	t.Helper()
	m, err := NewCSR(rows, cols, entries)
	if err != nil {
		t.Fatalf("NewCSR: %v", err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return m
}

func TestNewCSRBasic(t *testing.T) {
	m := mustCSR(t, 3, 3, []Entry{
		{0, 1, 0.5}, {0, 2, 0.5},
		{2, 0, 1.0},
	})
	if m.NNZ() != 3 {
		t.Errorf("NNZ = %d, want 3", m.NNZ())
	}
	if got := m.At(0, 1); got != 0.5 {
		t.Errorf("At(0,1) = %v, want 0.5", got)
	}
	if got := m.At(1, 1); got != 0 {
		t.Errorf("At(1,1) = %v, want 0", got)
	}
	if cols, _ := m.Row(1); len(cols) != 0 {
		t.Errorf("row 1 holds %d entries, want 0", len(cols))
	}
	if got := m.RowSum(0); got != 1.0 {
		t.Errorf("RowSum(0) = %v, want 1", got)
	}
}

func TestNewCSRDuplicatesSummed(t *testing.T) {
	m := mustCSR(t, 2, 2, []Entry{
		{0, 1, 0.25}, {0, 1, 0.75},
	})
	if m.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1 after coalescing", m.NNZ())
	}
	if got := m.At(0, 1); got != 1.0 {
		t.Errorf("At(0,1) = %v, want 1.0", got)
	}
}

func TestNewCSROutOfRange(t *testing.T) {
	if _, err := NewCSR(2, 2, []Entry{{2, 0, 1}}); err == nil {
		t.Error("row out of range accepted")
	}
	if _, err := NewCSR(2, 2, []Entry{{0, -1, 1}}); err == nil {
		t.Error("negative column accepted")
	}
	if _, err := NewCSR(-1, 2, nil); err == nil {
		t.Error("negative rows accepted")
	}
}

func TestNewCSREmpty(t *testing.T) {
	m := mustCSR(t, 0, 0, nil)
	if m.NNZ() != 0 {
		t.Errorf("NNZ = %d", m.NNZ())
	}
	m = mustCSR(t, 5, 5, nil)
	for i := 0; i < 5; i++ {
		if cols, _ := m.Row(i); len(cols) != 0 {
			t.Errorf("row %d nonempty", i)
		}
	}
}

func TestTranspose(t *testing.T) {
	m := mustCSR(t, 2, 3, []Entry{
		{0, 0, 1}, {0, 2, 2}, {1, 1, 3},
	})
	mt := m.TransposeParallel(1)
	if err := mt.Validate(); err != nil {
		t.Fatalf("transpose invalid: %v", err)
	}
	if mt.Rows != 3 || mt.ColsN != 2 {
		t.Fatalf("transpose shape %dx%d", mt.Rows, mt.ColsN)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.ColsN; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Errorf("At(%d,%d)=%v but transpose At(%d,%d)=%v",
					i, j, m.At(i, j), j, i, mt.At(j, i))
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randomCSR(rng, 20, 15, 100)
	tt := m.TransposeParallel(1).TransposeParallel(1)
	if tt.Rows != m.Rows || tt.ColsN != m.ColsN || tt.NNZ() != m.NNZ() {
		t.Fatalf("shape/nnz changed: %dx%d nnz %d", tt.Rows, tt.ColsN, tt.NNZ())
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.ColsN; j++ {
			if m.At(i, j) != tt.At(i, j) {
				t.Fatalf("(Mᵀ)ᵀ differs at (%d,%d)", i, j)
			}
		}
	}
}

func TestIsRowStochastic(t *testing.T) {
	m := mustCSR(t, 2, 2, []Entry{{0, 0, 0.5}, {0, 1, 0.5}})
	if !m.IsRowStochastic(1e-12) {
		t.Error("stochastic matrix reported non-stochastic (empty rows allowed)")
	}
	m2 := mustCSR(t, 2, 2, []Entry{{0, 0, 0.5}, {0, 1, 0.6}})
	if m2.IsRowStochastic(1e-12) {
		t.Error("non-stochastic matrix reported stochastic")
	}
	m3 := mustCSR(t, 1, 2, []Entry{{0, 0, 1.5}, {0, 1, -0.5}})
	if m3.IsRowStochastic(1e-12) {
		t.Error("negative entry accepted as stochastic")
	}
}

func randomCSR(rng *rand.Rand, rows, cols, nnz int) *CSR {
	entries := make([]Entry, 0, nnz)
	for k := 0; k < nnz; k++ {
		entries = append(entries, Entry{
			Row: rng.Intn(rows),
			Col: rng.Intn(cols),
			Val: rng.Float64()*2 - 1,
		})
	}
	m, err := NewCSR(rows, cols, entries)
	if err != nil {
		panic(err)
	}
	return m
}

// Property: a randomly built CSR always validates, and transposing twice
// preserves every entry.
func TestQuickCSRRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(30)
		cols := 1 + rng.Intn(30)
		m := randomCSR(rng, rows, cols, rng.Intn(200))
		if m.Validate() != nil {
			return false
		}
		tt := m.TransposeParallel(1).TransposeParallel(1)
		if tt.Validate() != nil {
			return false
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if math.Abs(m.At(i, j)-tt.At(i, j)) > 1e-15 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: RowSum equals the sum over At for each column.
func TestQuickRowSum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(10)
		cols := 1 + rng.Intn(10)
		m := randomCSR(rng, rows, cols, rng.Intn(50))
		for i := 0; i < rows; i++ {
			var s float64
			for j := 0; j < cols; j++ {
				s += m.At(i, j)
			}
			if math.Abs(s-m.RowSum(i)) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

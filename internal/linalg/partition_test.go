package linalg

import (
	"math"
	"math/big"
	"testing"
)

// checkPartition asserts the structural contract of partitionPtrByNNZ:
// workers+1 boundaries, anchored at 0 and rows, monotone nondecreasing.
func checkPartition(t *testing.T, bounds []int, rows, workers int) {
	t.Helper()
	if len(bounds) != workers+1 {
		t.Fatalf("len(bounds) = %d, want %d", len(bounds), workers+1)
	}
	if bounds[0] != 0 || bounds[workers] != rows {
		t.Fatalf("bounds anchors = %d..%d, want 0..%d", bounds[0], bounds[workers], rows)
	}
	for w := 0; w < workers; w++ {
		if bounds[w] > bounds[w+1] {
			t.Fatalf("bounds not monotone at %d: %v", w, bounds)
		}
	}
}

func TestPartitionPtrByNNZEmptyMatrix(t *testing.T) {
	// Zero rows: every boundary collapses to 0.
	bounds := partitionPtrByNNZ([]int64{0}, 0, 4)
	checkPartition(t, bounds, 0, 4)

	// Rows but zero entries: degenerate row balancing.
	rowPtr := []int64{0, 0, 0, 0, 0, 0, 0, 0, 0}
	bounds = partitionPtrByNNZ(rowPtr, 8, 4)
	checkPartition(t, bounds, 8, 4)
	for w := 0; w <= 4; w++ {
		if bounds[w] != 2*w {
			t.Fatalf("zero-nnz split: bounds = %v, want [0 2 4 6 8]", bounds)
		}
	}
}

func TestPartitionPtrByNNZSingleHugeRow(t *testing.T) {
	// One row holds ~all entries: it must own a stripe alone and the
	// remaining rows split after it.
	rowPtr := []int64{0, 1_000_000, 1_000_001, 1_000_002, 1_000_003}
	bounds := partitionPtrByNNZ(rowPtr, 4, 4)
	checkPartition(t, bounds, 4, 4)
	if bounds[1] != 1 || bounds[2] != 1 || bounds[3] != 1 {
		t.Fatalf("huge-row split: bounds = %v, want the hub row alone in stripe 0", bounds)
	}

	// Hub in the middle: stripes before it stay empty rather than
	// stealing rows past the cumulative targets.
	rowPtr = []int64{0, 1, 900_001, 900_002, 900_003}
	bounds = partitionPtrByNNZ(rowPtr, 4, 2)
	checkPartition(t, bounds, 4, 2)
	if bounds[1] != 2 {
		t.Fatalf("mid-hub split: bounds = %v, want boundary after the hub row", bounds)
	}
}

func TestPartitionPtrByNNZMoreWorkersThanRows(t *testing.T) {
	rowPtr := []int64{0, 3, 6}
	bounds := partitionPtrByNNZ(rowPtr, 2, 7)
	checkPartition(t, bounds, 2, 7)
	// Every row must still be covered exactly once; surplus stripes are
	// empty.
	covered := 0
	for w := 0; w < 7; w++ {
		covered += bounds[w+1] - bounds[w]
	}
	if covered != 2 {
		t.Fatalf("rows covered %d times, want exactly once each: %v", covered, bounds)
	}
}

// TestPartitionPtrByNNZOverflowGuard pins the 128-bit target computation:
// with a prefix sum near MaxInt64 the old total*w/workers expression
// wrapped negative, freezing later boundaries at the previous row and
// skewing the split. Targets are checked against big.Int reference
// arithmetic.
func TestPartitionPtrByNNZOverflowGuard(t *testing.T) {
	huge := int64(math.MaxInt64) - 1
	rowPtr := []int64{0, huge / 4, huge / 2, huge - huge/4, huge}
	workers := 3
	bounds := partitionPtrByNNZ(rowPtr, 4, workers)
	checkPartition(t, bounds, 4, workers)

	// Reference: bounds[w] is the first row (continuing monotonically)
	// whose cumulative count reaches total·w/workers.
	row := 0
	for w := 1; w < workers; w++ {
		target := new(big.Int).Mul(big.NewInt(huge), big.NewInt(int64(w)))
		target.Div(target, big.NewInt(int64(workers)))
		for row < 4 && big.NewInt(rowPtr[row]).Cmp(target) < 0 {
			row++
		}
		if bounds[w] != row {
			t.Fatalf("overflow guard: bounds[%d] = %d, want %d (bounds %v)", w, bounds[w], row, bounds)
		}
	}
}

// TestPartitionPtrByNNZMatchesUnguardedInRange pins the guard to the old
// expression wherever it did not overflow: identical boundaries on
// ordinary matrices, so stripe structure — and every downstream golden
// hash — is unchanged.
func TestPartitionPtrByNNZMatchesUnguardedInRange(t *testing.T) {
	m := randCSR(t, 42, 500, 500, 8000)
	for _, workers := range []int{1, 2, 3, 5, 8, 16, 100} {
		got := partitionPtrByNNZ(m.RowPtr, m.Rows, workers)
		checkPartition(t, got, m.Rows, workers)
		total := m.RowPtr[m.Rows]
		row := 0
		for w := 1; w < workers; w++ {
			target := total * int64(w) / int64(workers) // safe at this scale
			for row < m.Rows && m.RowPtr[row] < target {
				row++
			}
			if got[w] != row {
				t.Fatalf("workers=%d: bounds[%d] = %d, want %d", workers, w, got[w], row)
			}
		}
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

//go:build unix

package linalg

import (
	"syscall"
	"testing"
	"unsafe"
)

// guardedTail returns n zeroed elements of T whose last byte is the last
// byte of a mapped page, with an inaccessible page right behind it: a
// read of even one element past the slice faults instead of passing
// unnoticed.
func guardedTail[T any](t *testing.T, n int) []T {
	t.Helper()
	page := syscall.Getpagesize()
	size := n * int(unsafe.Sizeof(*new(T)))
	pages := (size + page - 1) / page
	mem, err := syscall.Mmap(-1, 0, (pages+1)*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[pages*page:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[pages*page-size])), n)
}

// TestRowSums64EndOfPage runs the pass over operands whose cols, vals and
// src each end where their mapping ends, for every length of final row:
// the masked loads and the masked gather of a row's last trip must touch
// nothing behind the last entry. A kernel that loaded a whole group there
// would take a SIGSEGV rather than fail an assertion.
func TestRowSums64EndOfPage(t *testing.T) { testRowSumsEndOfPage(t, checkRowSums64) }

// TestRowSums32EndOfPage is TestRowSums64EndOfPage for the float32 pass:
// a final row of 4k+1 to 4k+3 entries ends in a masked tail whose last
// lane is the last element of cols, vals and src.
func TestRowSums32EndOfPage(t *testing.T) { testRowSumsEndOfPage(t, checkRowSums32) }

func testRowSumsEndOfPage[F Float](t *testing.T, check rowSumsCheck[F]) {
	for rowLen := 0; rowLen <= 13; rowLen++ {
		n := 3 + rowLen // a three-entry row, then the row under test
		vals, cols, src := guardedTail[F](t, n), guardedTail[int32](t, n), guardedTail[F](t, n)
		for p := range vals {
			vals[p], cols[p], src[p] = F(1/float64(p+2)), int32((p*7+n-1)%n), F(p)-2.5
		}
		cols[n-1] = int32(n - 1) // the last entry gathers the last src element
		check(t, []int64{0, 3, int64(n)}, vals, cols, src, 0, 2)
	}
}

// TestRowSums64PairEndOfPage is TestRowSums64EndOfPage for the pair pass:
// the last entry reads the last pair of src, and nothing behind it.
func TestRowSums64PairEndOfPage(t *testing.T) {
	for rowLen := 0; rowLen <= 13; rowLen++ {
		n := 3 + rowLen
		vals, cols, src2 := guardedTail[float64](t, n), guardedTail[int32](t, n), guardedTail[float64](t, 2*n)
		for p := range vals {
			vals[p], cols[p] = 1/float64(p+2), int32((p*7+n-1)%n)
		}
		for i := range src2 {
			src2[i] = float64(i) - 2.5
		}
		cols[n-1] = int32(n - 1)
		checkRowSums64Pair(t, []int64{0, 3, int64(n)}, vals, cols, src2, 0, 2)
	}
}

package throttle

import (
	"math"

	"sourcerank/internal/linalg"
)

// PatchTopK updates kappa in place to the TopK assignment for proximity
// and k, returning how many entries changed and the proximity gap at the
// top-k boundary (k-th highest score minus (k+1)-th highest, +Inf when k
// clamps to 0 or len(proximity), i.e. no boundary exists).
//
// The selected set is identical to TopK's — same (score desc, index asc)
// total order — but found by quickselect in O(n) expected time instead
// of a full sort, and without reallocating kappa. A kappa already holding
// a set proximity separates strictly is confirmed in one pass instead.
func PatchTopK(kappa []float64, proximity linalg.Vector, k int) (changed int, gap float64) {
	n := len(proximity)
	if len(kappa) != n {
		panic("throttle: PatchTopK kappa/proximity length mismatch")
	}
	k = min(max(k, 0), n)
	if g, ok := separation(kappa, proximity, k); ok {
		return 0, g
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	higher := func(a, b int32) bool {
		if proximity[a] != proximity[b] {
			return proximity[a] > proximity[b]
		}
		return a < b
	}
	if k > 0 && k < n {
		quickselect(idx, k, higher)
	}
	for j, i := range idx {
		want := 0.0
		if j < k {
			want = 1
		}
		if kappa[i] != want {
			kappa[i] = want
			changed++
		}
	}
	// Ties across the boundary yield a zero gap.
	gap, _ = separation(kappa, proximity, k)
	return changed, gap
}

// separation reports whether kappa is a 0/1 vector selecting k entries
// that proximity ranks strictly above every other, and by what gap.
func separation(kappa []float64, proximity linalg.Vector, k int) (gap float64, ok bool) {
	minIn, maxOut, ones := math.Inf(1), math.Inf(-1), 0
	for i, x := range proximity {
		switch kappa[i] {
		case 1:
			ones, minIn = ones+1, min(minIn, x)
		case 0:
			maxOut = max(maxOut, x)
		default:
			return 0, false
		}
	}
	return minIn - maxOut, ones == k && minIn > maxOut
}

// quickselect partitions idx so its first k entries are the k smallest
// under less (in arbitrary order). Deterministic: median-of-three
// pivoting, no randomness — required so streamed κ assignment never
// depends on scheduling.
func quickselect(idx []int32, k int, less func(a, b int32) bool) {
	lo, hi := 0, len(idx)-1
	for lo < hi {
		if hi-lo < 12 {
			// Insertion sort on small ranges.
			for i := lo + 1; i <= hi; i++ {
				for j := i; j > lo && less(idx[j], idx[j-1]); j-- {
					idx[j], idx[j-1] = idx[j-1], idx[j]
				}
			}
			return
		}
		mid := lo + (hi-lo)/2
		if less(idx[mid], idx[lo]) {
			idx[lo], idx[mid] = idx[mid], idx[lo]
		}
		if less(idx[hi], idx[lo]) {
			idx[lo], idx[hi] = idx[hi], idx[lo]
		}
		if less(idx[hi], idx[mid]) {
			idx[mid], idx[hi] = idx[hi], idx[mid]
		}
		// Median of three is now at mid; use it as the Lomuto pivot.
		idx[mid], idx[hi] = idx[hi], idx[mid]
		pivot := idx[hi]
		store := lo
		for i := lo; i < hi; i++ {
			if less(idx[i], pivot) {
				idx[i], idx[store] = idx[store], idx[i]
				store++
			}
		}
		idx[store], idx[hi] = idx[hi], idx[store]
		switch {
		case store == k || store == k-1:
			return
		case store > k:
			hi = store - 1
		default:
			lo = store + 1
		}
	}
}

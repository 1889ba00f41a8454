// Package rankeval evaluates and compares ranking vectors: percentile
// ranks (the y-axis of the paper's Figures 6–7), equal-size bucket
// distributions (Figure 5), and rank-correlation metrics (Kendall τ,
// Spearman footrule, top-k overlap) used by the stability ablations.
package rankeval

import (
	"errors"
	"fmt"
	"sort"

	"sourcerank/internal/linalg"
)

// ErrBadInput reports malformed evaluation inputs.
var ErrBadInput = errors.New("rankeval: bad input")

// Ranks returns the 0-based descending-score rank of every node: the node
// with the highest score has rank 0. Ties resolve by smaller index first,
// making ranks deterministic.
func Ranks(scores linalg.Vector) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] > scores[idx[b]]
		}
		return idx[a] < idx[b]
	})
	ranks := make([]int, len(scores))
	for r, i := range idx {
		ranks[i] = r
	}
	return ranks
}

// Percentile returns node i's ranking percentile in [0, 100]: the share
// of nodes whose score is strictly below node i's. Tied nodes therefore
// share one percentile, which keeps the statistic stable when many nodes
// sit in a near-identical score band (common in teleport-dominated
// rankings). The unique top node of n nodes gets 100·(n-1)/n; any node
// tied with the minimum gets 0.
func Percentile(scores linalg.Vector, i int) (float64, error) {
	if i < 0 || i >= len(scores) {
		return 0, fmt.Errorf("%w: index %d of %d", ErrBadInput, i, len(scores))
	}
	n := len(scores)
	if n == 1 {
		return 0, nil
	}
	sorted := sortedScores(scores)
	below := sort.SearchFloat64s(sorted, scores[i])
	return 100 * float64(below) / float64(n), nil
}

// sortedScores returns an ascending copy of scores.
func sortedScores(scores linalg.Vector) []float64 {
	sorted := make([]float64, len(scores))
	copy(sorted, scores)
	sort.Float64s(sorted)
	return sorted
}

// Buckets sorts nodes by decreasing score, splits them into k buckets of
// (near-)equal size — bucket 0 holds the top-ranked nodes — and returns
// the count of marked nodes per bucket. This reproduces the paper's
// Figure 5 methodology (20 buckets, marked = spam sources).
func Buckets(scores linalg.Vector, marked []int32, k int) ([]int, error) {
	n := len(scores)
	if k <= 0 || k > n {
		return nil, fmt.Errorf("%w: k = %d with %d nodes", ErrBadInput, k, n)
	}
	ranks := Ranks(scores)
	counts := make([]int, k)
	for _, m := range marked {
		if m < 0 || int(m) >= n {
			return nil, fmt.Errorf("%w: marked node %d of %d", ErrBadInput, m, n)
		}
		// Bucket b covers ranks [b*n/k, (b+1)*n/k).
		b := ranks[m] * k / n
		if b >= k {
			b = k - 1
		}
		counts[b]++
	}
	return counts, nil
}

// BottomHalf returns the node IDs ranked in the bottom 50% by score,
// which is where the paper samples its attack targets ("randomly selected
// five sources from the bottom 50% of all sources").
func BottomHalf(scores linalg.Vector) []int32 {
	n := len(scores)
	ranks := Ranks(scores)
	var out []int32
	for i := 0; i < n; i++ {
		if ranks[i] >= n/2 {
			out = append(out, int32(i))
		}
	}
	return out
}

// KendallTau computes the Kendall rank-correlation coefficient between
// two score vectors over the same node set, in O(n log n) via inversion
// counting. Ties are broken deterministically by node index (both sides
// use the same tie-break, so identical vectors give τ = 1).
func KendallTau(a, b linalg.Vector) (float64, error) {
	n := len(a)
	if n != len(b) {
		return 0, fmt.Errorf("%w: lengths %d != %d", ErrBadInput, n, len(b))
	}
	if n < 2 {
		return 1, nil
	}
	// Order nodes by a's ranking, then count inversions in b's ranking.
	ra := Ranks(a)
	rb := Ranks(b)
	posByARank := make([]int, n)
	for i, r := range ra {
		posByARank[r] = i
	}
	seq := make([]int, n)
	for r := 0; r < n; r++ {
		seq[r] = rb[posByARank[r]]
	}
	inv := countInversions(seq)
	pairs := float64(n) * float64(n-1) / 2
	return 1 - 2*float64(inv)/pairs, nil
}

// countInversions counts inversions by merge sort; it mutates its input.
func countInversions(a []int) int64 {
	buf := make([]int, len(a))
	var rec func(lo, hi int) int64
	rec = func(lo, hi int) int64 {
		if hi-lo < 2 {
			return 0
		}
		mid := (lo + hi) / 2
		inv := rec(lo, mid) + rec(mid, hi)
		i, j, k := lo, mid, lo
		for i < mid && j < hi {
			if a[i] <= a[j] {
				buf[k] = a[i]
				i++
			} else {
				buf[k] = a[j]
				j++
				inv += int64(mid - i)
			}
			k++
		}
		for i < mid {
			buf[k] = a[i]
			i++
			k++
		}
		for j < hi {
			buf[k] = a[j]
			j++
			k++
		}
		copy(a[lo:hi], buf[lo:hi])
		return inv
	}
	return rec(0, len(a))
}

// TopKOverlap returns |topK(a) ∩ topK(b)| / k, the share of a's top-k
// nodes that also appear in b's top-k.
func TopKOverlap(a, b linalg.Vector, k int) (float64, error) {
	n := len(a)
	if n != len(b) {
		return 0, fmt.Errorf("%w: lengths %d != %d", ErrBadInput, n, len(b))
	}
	if k <= 0 || k > n {
		return 0, fmt.Errorf("%w: k = %d with %d nodes", ErrBadInput, k, n)
	}
	ra, rb := Ranks(a), Ranks(b)
	inA := map[int]bool{}
	for i := 0; i < n; i++ {
		if ra[i] < k {
			inA[i] = true
		}
	}
	common := 0
	for i := 0; i < n; i++ {
		if rb[i] < k && inA[i] {
			common++
		}
	}
	return float64(common) / float64(k), nil
}

// MeanPercentileOf returns the average ranking percentile (strictly-below
// semantics, as in Percentile) of the marked nodes under the given scores.
func MeanPercentileOf(scores linalg.Vector, marked []int32) (float64, error) {
	if len(marked) == 0 {
		return 0, fmt.Errorf("%w: no marked nodes", ErrBadInput)
	}
	n := len(scores)
	sorted := sortedScores(scores)
	var sum float64
	for _, m := range marked {
		if m < 0 || int(m) >= n {
			return 0, fmt.Errorf("%w: marked node %d of %d", ErrBadInput, m, n)
		}
		below := sort.SearchFloat64s(sorted, scores[m])
		sum += 100 * float64(below) / float64(n)
	}
	return sum / float64(len(marked)), nil
}

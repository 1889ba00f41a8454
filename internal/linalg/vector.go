// Package linalg provides the sparse linear-algebra substrate used by the
// ranking algorithms: dense float64 vectors, weighted compressed-sparse-row
// matrices, a row-partitioned parallel sparse matrix–vector product, and
// the iterative solvers (power method, Jacobi) that the paper uses to
// compute PageRank-style stationary distributions.
//
// Everything is allocation-conscious: solvers reuse scratch buffers across
// iterations, and the parallel kernels partition work by rows so each
// goroutine writes a disjoint slice of the output.
package linalg

import (
	"fmt"
	"math"
)

// Vector is a dense float64 vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// NewUniformVector returns a length-n vector with every entry 1/n.
// It returns an empty vector when n <= 0.
func NewUniformVector(n int) Vector {
	if n <= 0 {
		return Vector{}
	}
	v := make(Vector, n)
	u := 1 / float64(n)
	for i := range v {
		v[i] = u
	}
	return v
}

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// Padded returns v at length n — v itself cut to n entries when it is
// long enough, a zero-extended copy otherwise — and nil for a nil v. It
// adapts a previous solve's vector to a corpus whose source count moved:
// new sources start at zero mass and the solver renormalizes.
func (v Vector) Padded(n int) Vector {
	switch {
	case v == nil:
		return nil
	case len(v) >= n:
		return v[:n]
	}
	out := make(Vector, n)
	copy(out, v)
	return out
}

// Norm1 returns the L1 norm of v.
func (v Vector) Norm1() float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// Scale multiplies every entry of v by a in place.
func (v Vector) Scale(a float64) {
	for i := range v {
		v[i] *= a
	}
}

// Normalize1 rescales v in place so it sums to 1 (L1 normalization on a
// nonnegative vector). If the L1 norm is zero it leaves v unchanged and
// reports false.
func (v Vector) Normalize1() bool {
	n := v.Norm1()
	if n == 0 {
		return false
	}
	v.Scale(1 / n)
	return true
}

// L2Distance returns ||v - w||_2, the convergence measure the paper uses
// ("L2-distance of successive iterations of the Power Method").
// It panics if the lengths differ.
func L2Distance(v, w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: L2Distance length mismatch %d != %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		d := x - w[i]
		s += d * d
	}
	return math.Sqrt(s)
}

package linalg

import (
	"fmt"
	"unsafe"
)

// Precision selects the floating-point width of a solver's iterate. The
// ranking solvers are memory-bandwidth-bound — wall time tracks the bytes
// of CSR arrays and vectors streamed per iteration, not the FLOPs — so
// halving the operand width roughly doubles kernel throughput. Float32
// stores the matrix values and iterate at half width while every
// reduction (row dot products, the lost-mass sum, the convergence
// residual) still accumulates in float64; published score vectors are
// always widened back to float64, so Precision is solve provenance, not
// an output format.
type Precision uint8

const (
	// Float64 is the default full-width iterate; results are bitwise
	// identical to the pre-precision-option solvers.
	Float64 Precision = iota
	// Float32 runs the iterate at half width (PowerMethodT over a CSR32);
	// rank order matches Float64 to high fidelity (Kendall τ ≥ 0.999 on
	// the benchmark corpora) but score bits differ at relative ~1e-7.
	Float32
)

// SlabFloat32 is Float32 under the name benchmark/surface.go is frozen
// against.
const SlabFloat32 = Float32

// precisionOf is the Precision whose values are stored as F.
func precisionOf[F Float]() Precision {
	var zero F
	if unsafe.Sizeof(zero) == 4 {
		return Float32
	}
	return Float64
}

// valWidth is the byte width of one stored value.
func (p Precision) valWidth() int64 {
	if p == Float32 {
		return 4
	}
	return 8
}

// String returns the flag spelling of p.
func (p Precision) String() string {
	if p == Float32 {
		return "float32"
	}
	return "float64"
}

// ParsePrecision parses a -precision flag value. The empty string selects
// Float64.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "float64", "f64":
		return Float64, nil
	case "float32", "f32":
		return Float32, nil
	}
	return Float64, fmt.Errorf("linalg: unknown precision %q (want float64 or float32)", s)
}

package linalg

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// hashVectorBits folds the exact bit patterns of v into an FNV-64a hash.
// Any change to the float64 solver pipeline's arithmetic — summation
// order, stripe structure, kernel fusion — changes the hash.
func hashVectorBits(v Vector) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// goldenSolve64 lists bitwise-pinned float64 solver outputs on fixed
// fixtures. The float32 scoring path added in this PR must leave the
// float64 path untouched; these constants were recorded before wiring it
// in and fail if any refactor perturbs a single output bit. An
// intentional numeric change must update them to the "got" hashes from
// the failure messages.
var goldenSolve64 = []struct {
	name string
	hash uint64
	run  func(t *testing.T) Vector
}{
	{
		name: "power-n200",
		hash: 0x311061ff4e0a19,
		run: func(t *testing.T) Vector {
			pt := randChain(t, 11, 200).Transpose()
			x, st, err := PowerMethodT(pt, 0.85, NewUniformVector(200), nil, SolverOptions{Workers: 3})
			if err != nil || !st.Converged {
				t.Fatalf("solve: %v %+v", err, st)
			}
			return x
		},
	},
	{
		name: "jacobi-n150",
		hash: 0xdc0f5b6cc6c053e7,
		run: func(t *testing.T) Vector {
			at := randChain(t, 13, 150).Transpose()
			b := NewUniformVector(150)
			b.Scale(0.15)
			x, st, err := JacobiAffineT(at, 0.85, b, nil, SolverOptions{Workers: 3})
			if err != nil || !st.Converged {
				t.Fatalf("solve: %v %+v", err, st)
			}
			return x
		},
	},
}

// TestGoldenFloat64Solves pins the float64 solver outputs bit for bit
// against hashes recorded before the float32 path existed, proving the
// reference path is unchanged by the mixed-precision refactor — and, since
// each entry runs once per row-sum implementation, that the AVX2 kernel
// adds the same products in the same order as the Go loop.
func TestGoldenFloat64Solves(t *testing.T) {
	// The fused thresholds must be at their production values: the golden
	// bits include the stripe structure they imply.
	if fusedMinNNZ != 4096 || fusedNNZPerStripe != 4096 {
		t.Fatal("fused thresholds not at production values")
	}
	for _, g := range goldenSolve64 {
		g := g
		t.Run(g.name, func(t *testing.T) {
			eachRowSumsImpl(func(impl string) {
				got := hashVectorBits(g.run(t))
				if got != g.hash {
					t.Errorf("%s, %s row sums: output bits hash %#x, golden %#x — the float64 solver path changed",
						g.name, impl, got, g.hash)
				}
			})
		})
	}
}

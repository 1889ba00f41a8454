package linalg

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
)

// The float32 counterpart of golden64_test.go. The float32 kernels promise
// the same bits at every worker count, with or without the AVX2 row-sum
// pass, and whether the operand sits in the heap or streams from a slab
// under a residency budget — so one recorded hash per (fixture, solver,
// stripe thresholds) pins all of those at once. The hashes were recorded
// on amd64; they hold wherever the products are rounded before they are
// added, which rowSums32Go's explicit conversions require of every
// architecture's compiler.

// solvePower32, solvePower32Uniform, solveJacobi32, openSlab32 and
// rowSumsPass32 are the only places this file names the float32 API.
func solvePower32(pt *CSR32, t Vector, opt SolverOptions) (Vector, IterStats, error) {
	return PowerMethodT(pt, 0.85, t, nil, opt)
}

func solvePower32Uniform(pt *CSR32, opt SolverOptions) (Vector, IterStats, error) {
	return PowerMethodTUniform(pt, 0.85, opt)
}

func solveJacobi32(at *CSR32, b Vector, opt SolverOptions) (Vector, IterStats, error) {
	return JacobiAffineT(at, 0.85, b, nil, opt)
}

func openSlab32(path string, opt SlabOpenOptions) (*SlabCSR32, error) {
	return OpenSlab[float32](path, opt)
}

func rowSumsPass32(m *CSR32, src Vector32, acc []float64) {
	rowSums32(m.RowPtr, m.Vals, m.Cols, src, acc, 0, m.Rows)
}

// rowLengthsChain is a column-stochastic operand whose row i holds i mod 10
// entries, so the row-sum pass sees every length 0–9: the empty row, the
// tail-only rows (1–3), one and two full lane groups (4, 8) and each tail
// after a group (5–7, 9) — all the shapes of the four-lane scheme and its
// (s0+s1)+(s2+s3) pairing.
func rowLengthsChain(t testing.TB, n int) *CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(67))
	perCol := make([]int, n)
	var entries []Entry
	for i := 0; i < n; i++ {
		for _, j := range rng.Perm(n)[:i%10] {
			entries = append(entries, Entry{Row: i, Col: j})
			perCol[j]++
		}
	}
	for k := range entries {
		// Weights spread over 24 binades, scaled so columns sum below 1. A
		// float32 product has 48 significant bits, so a row of similar
		// magnitudes sums exactly in float64 whatever the lane order; the
		// spread is what makes the order show in the sum's last bit.
		entries[k].Val = math.Ldexp(0.5+0.5*rng.Float64(), -rng.Intn(24)) / float64(perCol[entries[k].Col])
	}
	m, err := NewCSR(n, n, entries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// hashSolve32 folds a solve's score bits, iteration count and residual
// bits into one FNV-64a hash.
func hashSolve32(x Vector, st IterStats) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for _, v := range x {
		put(math.Float64bits(v))
	}
	put(uint64(st.Iterations))
	put(math.Float64bits(st.Residual))
	return h.Sum64()
}

// The operands handed to the kernel: golden64_test.go's two, and the
// row-length fixture.
func goldenN200(t testing.TB) *CSR    { return randChain(t, 11, 200).Transpose() }
func goldenN150(t testing.TB) *CSR    { return randChain(t, 13, 150).Transpose() }
func goldenRowLens(t testing.TB) *CSR { return rowLengthsChain(t, 130) }

// goldenSolve32 lists the pinned float32 solver outputs. forced marks the
// runs made with the stripe thresholds lowered (many stripes, pooled
// workers, tree-reduced residual); the others run at production
// thresholds, where these fixtures are one serial stripe.
var goldenSolve32 = []struct {
	name    string
	fixture func(t testing.TB) *CSR // the operand handed to the kernel
	solver  string
	forced  bool
	hash    uint64
}{
	{"power-n200", goldenN200, "power", false, 0xa081f0e6fa245082},
	{"power-n200-forced", goldenN200, "power", true, 0xa081f0e6fa245082},
	{"uniform-n200", goldenN200, "uniform", false, 0xa081f0e6fa245082},
	{"uniform-n200-forced", goldenN200, "uniform", true, 0xa081f0e6fa245082},
	{"jacobi-n150", goldenN150, "jacobi", false, 0xa234d8fef3bd11a8},
	{"jacobi-n150-forced", goldenN150, "jacobi", true, 0xa234d8fef3bd11a8},
	{"power-rowlens", goldenRowLens, "power", false, 0xd88e3d6104634664},
	{"power-rowlens-forced", goldenRowLens, "power", true, 0xd88e3d6104634664},
	{"uniform-rowlens-forced", goldenRowLens, "uniform", true, 0xd88e3d6104634664},
	{"jacobi-rowlens-forced", goldenRowLens, "jacobi", true, 0xf1e733c8fd6272ff},
}

// TestGoldenFloat32Solves pins the float32 solver outputs bit for bit
// against hashes recorded before the float32 kernels were merged into the
// generic one: every listed solve, at workers 1 and 3, with the AVX2
// row-sum pass on and off, over an in-heap operand and over a slab under a
// budget small enough to release in at least two windows, must hash to
// the recorded value.
func TestGoldenFloat32Solves(t *testing.T) {
	if fusedMinNNZ != 4096 || fusedNNZPerStripe != 4096 {
		t.Fatal("fused thresholds not at production values")
	}
	for _, g := range goldenSolve32 {
		g := g
		t.Run(g.name, func(t *testing.T) {
			if g.forced {
				forceFusedParallel(t)
			}
			m := g.fixture(t)
			n := m.Rows
			path := filepath.Join(t.TempDir(), "golden32.slab")
			if err := WriteSlabCSR(nil, path, m, Float32); err != nil {
				t.Fatal(err)
			}
			solve := func(op *CSR32, workers int) uint64 {
				// Two solves per hash: one to convergence, and one cut off
				// after three iterations, whose residual still sums a term
				// per row and so depends on the stripe tree reduce.
				var sum uint64
				for _, maxIter := range []int{0, 3} {
					opt := SolverOptions{Workers: workers, MaxIter: maxIter}
					var x Vector
					var st IterStats
					var err error
					switch g.solver {
					case "power":
						x, st, err = solvePower32(op, NewUniformVector(n), opt)
					case "uniform":
						x, st, err = solvePower32Uniform(op, opt)
					case "jacobi":
						b := NewUniformVector(n)
						b.Scale(0.15)
						x, st, err = solveJacobi32(op, b, opt)
					}
					if err != nil || st.Converged != (maxIter == 0) {
						t.Fatalf("solve: %v %+v", err, st)
					}
					sum = sum*31 + hashSolve32(x, st)
				}
				return sum
			}
			eachRowSumsImpl(func(impl string) {
				for _, workers := range []int{1, 3} {
					if got := solve(NewCSR32(m), workers); got != g.hash {
						t.Errorf("heap %s workers=%d: hash %#x, golden %#x — the float32 solver path changed",
							impl, workers, got, g.hash)
					}
					s, err := openSlab32(path, SlabOpenOptions{MaxResident: 4096})
					if err != nil {
						t.Fatal(err)
					}
					got := solve(s.Matrix(), workers)
					rs := s.Residency()
					s.Close()
					if got != g.hash {
						t.Errorf("slab %s workers=%d: hash %#x, golden %#x — the float32 solver path changed",
							impl, workers, got, g.hash)
					}
					if g.forced && (rs.ReleaseCalls == 0 || 2*rs.WindowBytes > 8*int64(m.NNZ())) {
						t.Errorf("slab workers=%d: residency %+v over %d entry bytes, want at least two release windows",
							workers, rs, 8*m.NNZ())
					}
				}
			})
		})
	}
}

// TestGoldenFloat32RowSums pins the float64 row sums of the four-lane pass
// themselves. A solver output is a float32, which absorbs the last-ulp
// float64 difference a reordered lane makes in all but a rare rounding
// tie; the row sums do not, so this is the hash that fails when a lane is
// moved or the (s0+s1)+(s2+s3) pairing regrouped — in the Go loop, in the
// assembly, or in both at once (TestRowSums32Dispatch only compares the
// two with each other).
func TestGoldenFloat32RowSums(t *testing.T) {
	const golden uint64 = 0x4c996ecbd19f8db7
	m := NewCSR32(rowLengthsChain(t, 130))
	rng := rand.New(rand.NewSource(71))
	src := make(Vector32, m.ColsN)
	for i := range src {
		src[i] = float32(math.Ldexp(rng.Float64(), -rng.Intn(24)))
	}
	eachRowSumsImpl(func(impl string) {
		acc := make([]float64, m.Rows)
		rowSumsPass32(m, src, acc)
		if got := hashSolve32(acc, IterStats{}); got != golden {
			t.Errorf("%s: row-sum bits hash %#x, golden %#x — the four-lane summation order changed", impl, got, golden)
		}
	})
}

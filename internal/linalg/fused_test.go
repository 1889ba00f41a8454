package linalg

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

// forceFusedParallel lowers the fused-kernel thresholds so small test
// fixtures exercise the pooled multi-stripe path, restoring them on
// cleanup.
func forceFusedParallel(t testing.TB) {
	t.Helper()
	oldMin, oldPer := fusedMinNNZ, fusedNNZPerStripe
	fusedMinNNZ = 1
	fusedNNZPerStripe = 16
	t.Cleanup(func() { fusedMinNNZ, fusedNNZPerStripe = oldMin, oldPer })
}

// randChain builds a deterministic random row-substochastic chain with
// dangling rows, mirroring the generator in TestQuickPowerMethodIsDistribution.
func randChain(t testing.TB, seed int64, n int) *CSR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	entries := []Entry{}
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.15 {
			continue // dangling row
		}
		deg := 1 + rng.Intn(6)
		if deg > n {
			deg = n
		}
		seen := map[int]bool{}
		for len(seen) < deg {
			seen[rng.Intn(n)] = true
		}
		for j := range seen {
			entries = append(entries, Entry{i, j, 1 / float64(deg)})
		}
	}
	m, err := NewCSR(n, n, entries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// axpy computes v += a*w in place, entry by entry in index order.
func axpy(v Vector, a float64, w Vector) {
	for i := range v {
		v[i] += a * w[i]
	}
}

// mulVec computes dst = M·x row by row. Each product is explicitly
// rounded before it is added, as in rowSums64Go: no architecture may fuse
// it into the add.
func mulVec(m *CSR, x, dst Vector) {
	for i := 0; i < m.Rows; i++ {
		var s float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += float64(m.Vals[k] * x[m.Cols[k]])
		}
		dst[i] = s
	}
}

// unfusedPowerStep is the pre-fusion iteration sequence the kernel must
// reproduce bit for bit: mulVec, Scale, index-order lost-mass sum, axpy.
func unfusedPowerStep(pt *CSR, c float64, tel, src, dst Vector) {
	mulVec(pt, src, dst)
	dst.Scale(c)
	var sum float64
	for _, x := range dst {
		sum += x
	}
	lost := 1 - sum
	if lost < 0 {
		lost = 0
	}
	axpy(dst, lost, tel)
}

// unfusedAffineStep is the affine counterpart: mulVec, Scale, axpy(1, b).
func unfusedAffineStep(at *CSR, c float64, b, src, dst Vector) {
	mulVec(at, src, dst)
	dst.Scale(c)
	axpy(dst, 1, b)
}

// unfusedSolve is the oracle the solvers are checked against: the plain
// ping-pong loop over an unfused step with a full-vector L2Distance
// between iterates, stopping under the solvers' default tolerance and
// iteration cap.
func unfusedSolve(x0 Vector, step func(dst, src Vector)) (Vector, IterStats) {
	opt := SolverOptions{}.withDefaults()
	cur, next := x0.Clone(), NewVector(len(x0))
	var st IterStats
	for st.Iterations = 1; st.Iterations <= opt.MaxIter; st.Iterations++ {
		step(next, cur)
		st.Residual = L2Distance(next, cur)
		cur, next = next, cur
		if st.Residual < opt.Tol {
			st.Converged = true
			return cur, st
		}
	}
	st.Iterations = opt.MaxIter
	return cur, st
}

// TestFusedPowerBitwiseMatchesUnfused checks that one fused power Step
// produces exactly the bits of the unfused four-pass sequence at every
// worker count, and that the in-pass residual is bitwise invariant
// across worker counts and agrees with the serial norm to rounding — once
// per row-sum implementation, the oracle being Go loops either way. With
// its affine counterpart this is the float64 twin of
// TestFusedPower32WorkerInvariance.
func TestFusedPowerBitwiseMatchesUnfused(t *testing.T) {
	forceFusedParallel(t)
	for _, n := range []int{1, 2, 17, 97, 256} {
		p := randChain(t, int64(n), n)
		pt := p.TransposeParallel(1)
		tel := NewUniformVector(n)
		src := NewVector(n)
		rng := rand.New(rand.NewSource(42))
		for i := range src {
			src[i] = rng.Float64()
		}
		src.Normalize1()

		want := NewVector(n)
		unfusedPowerStep(pt, 0.85, tel, src, want)

		eachRowSumsImpl(func(impl string) {
			var res1 float64
			for workers := 1; workers <= 16; workers++ {
				k, err := NewFusedPower(pt, 0.85, tel, ResidualL2, workers)
				if err != nil {
					t.Fatal(err)
				}
				dst := NewVector(n)
				res := k.Step(dst, src)
				k.Close()
				for i := range dst {
					if dst[i] != want[i] {
						t.Fatalf("n=%d workers=%d, %s row sums: dst[%d] = %v, unfused %v", n, workers, impl, i, dst[i], want[i])
					}
				}
				if workers == 1 {
					res1 = res
					serial := L2Distance(dst, src)
					if math.Abs(res-serial) > 1e-12*(1+serial) {
						t.Fatalf("n=%d: fused residual %v far from serial %v", n, res, serial)
					}
				} else if res != res1 {
					t.Fatalf("n=%d workers=%d: residual %v != workers=1 residual %v", n, workers, res, res1)
				}
			}
		})
	}
}

// TestFusedAffineBitwiseMatchesUnfused is the affine-kernel counterpart:
// dst must equal mulVec + Scale + Axpy(1, b) exactly.
func TestFusedAffineBitwiseMatchesUnfused(t *testing.T) {
	forceFusedParallel(t)
	for _, n := range []int{1, 2, 17, 97, 256} {
		a := randChain(t, 1000+int64(n), n)
		at := a.TransposeParallel(1)
		b := NewVector(n)
		rng := rand.New(rand.NewSource(43))
		for i := range b {
			b[i] = rng.Float64() * 0.15
		}
		src := NewVector(n)
		for i := range src {
			src[i] = rng.Float64()
		}

		want := NewVector(n)
		unfusedAffineStep(at, 0.85, b, src, want)

		eachRowSumsImpl(func(impl string) {
			var res1 float64
			for workers := 1; workers <= 16; workers++ {
				k, err := newFusedKernel(at, 0.85, b, true, ResidualL2, workers)
				if err != nil {
					t.Fatal(err)
				}
				dst := NewVector(n)
				res := k.step(dst, src)
				k.Close()
				for i := range dst {
					if dst[i] != want[i] {
						t.Fatalf("n=%d workers=%d, %s row sums: dst[%d] = %v, unfused %v", n, workers, impl, i, dst[i], want[i])
					}
				}
				if workers == 1 {
					res1 = res
				} else if res != res1 {
					t.Fatalf("n=%d workers=%d: residual %v != workers=1 residual %v", n, workers, res, res1)
				}
			}
		})
	}
}

// TestFusedResidualL1 checks the L1 accumulation against a direct serial
// computation.
func TestFusedResidualL1(t *testing.T) {
	forceFusedParallel(t)
	p := randChain(t, 7, 64)
	pt := p.TransposeParallel(1)
	tel := NewUniformVector(64)
	src := tel.Clone()
	k, err := NewFusedPower(pt, 0.85, tel, ResidualL1, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	dst := NewVector(64)
	res := k.Step(dst, src)
	var want float64
	for i := range dst {
		want += math.Abs(dst[i] - src[i])
	}
	if math.Abs(res-want) > 1e-12*(1+want) {
		t.Fatalf("L1 residual %v, want about %v", res, want)
	}
}

// TestPowerMethodTFusedMatchesGenericPath pins the solver to the unfused
// oracle: the fused solve and the plain loop over the unfused step must
// agree bit for bit on the final iterate and on iteration count.
func TestPowerMethodTFusedMatchesGenericPath(t *testing.T) {
	forceFusedParallel(t)
	p := randChain(t, 11, 120)
	pt := p.TransposeParallel(1)
	tel := NewUniformVector(120)
	for workers := 1; workers <= 8; workers++ {
		fused, fst, err := PowerMethodT(pt, 0.85, tel, nil, SolverOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		generic, gst := unfusedSolve(tel, func(dst, src Vector) {
			unfusedPowerStep(pt, 0.85, tel, src, dst)
		})
		if fst.Iterations != gst.Iterations || fst.Converged != gst.Converged {
			t.Fatalf("workers=%d: fused stats %+v, generic %+v", workers, fst, gst)
		}
		for i := range fused {
			if fused[i] != generic[i] {
				t.Fatalf("workers=%d: x[%d] = %v fused, %v generic", workers, i, fused[i], generic[i])
			}
		}
	}
}

// TestJacobiAffineTFusedMatchesGenericPath is the affine counterpart.
func TestJacobiAffineTFusedMatchesGenericPath(t *testing.T) {
	forceFusedParallel(t)
	a := randChain(t, 13, 120)
	at := a.TransposeParallel(1)
	b := NewUniformVector(120)
	b.Scale(0.15)
	fused, fst, err := JacobiAffineT(at, 0.85, b, nil, SolverOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	generic, gst := unfusedSolve(b, func(dst, src Vector) {
		unfusedAffineStep(at, 0.85, b, src, dst)
	})
	if fst.Iterations != gst.Iterations || fst.Converged != gst.Converged {
		t.Fatalf("fused stats %+v, generic %+v", fst, gst)
	}
	for i := range fused {
		if fused[i] != generic[i] {
			t.Fatalf("x[%d] = %v fused, %v generic", i, fused[i], generic[i])
		}
	}
}

// TestFusedEmptyMatrix covers the degenerate 0x0 solve: no panic, and
// the zero-length residual converges immediately.
func TestFusedEmptyMatrix(t *testing.T) {
	m, err := NewCSR(0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, st, err := PowerMethodT(m, 0.85, Vector{}, nil, SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != 0 || !st.Converged || st.Iterations != 1 {
		t.Fatalf("empty solve: x=%v stats=%+v", x, st)
	}
	x, st, err = JacobiAffineT(m, 0.85, Vector{}, nil, SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != 0 || !st.Converged {
		t.Fatalf("empty affine solve: x=%v stats=%+v", x, st)
	}
}

// TestFusedDimensionErrors pins the constructor validation.
func TestFusedDimensionErrors(t *testing.T) {
	m := randChain(t, 3, 8)
	if _, err := NewFusedPower(m.TransposeParallel(1), 0.85, NewUniformVector(7), ResidualL2, 1); err != ErrDimension {
		t.Fatalf("bad teleport length: err=%v", err)
	}
	if _, err := newFusedKernel(m.TransposeParallel(1), 0.85, NewUniformVector(7), true, ResidualL2, 1); err != ErrDimension {
		t.Fatalf("bad bias length: err=%v", err)
	}
	rect, err := NewCSR(3, 4, []Entry{{0, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFusedPower(rect, 0.85, NewUniformVector(3), ResidualL2, 1); err != ErrDimension {
		t.Fatalf("rectangular operand: err=%v", err)
	}
	if _, err := NewFusedPower[float64](rect, 0.85, nil, ResidualL2, 1); err != ErrDimension {
		t.Fatalf("rectangular operand, uniform teleport: err=%v", err)
	}
	if _, err := newFusedKernel[float64](m.TransposeParallel(1), 0.85, nil, true, ResidualL2, 1); err != ErrDimension {
		t.Fatalf("nil bias: err=%v", err)
	}
}

// TestFusedStepZeroAlloc asserts the kernel's core promise: after the
// pool is up, Step allocates nothing.
func TestFusedStepZeroAlloc(t *testing.T) {
	forceFusedParallel(t)
	p := randChain(t, 21, 512)
	pt := p.TransposeParallel(1)
	tel := NewUniformVector(512)
	k, err := NewFusedPower(pt, 0.85, tel, ResidualL2, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	src, dst := tel.Clone(), NewVector(512)
	k.Step(dst, src) // warm up
	if n := testing.AllocsPerRun(50, func() {
		k.Step(dst, src)
		k.Step(src, dst)
	}); n != 0 {
		t.Fatalf("fused power Step allocated %v times per run", n)
	}

	ka, err := newFusedKernel(pt, 0.85, tel, true, ResidualL2, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer ka.Close()
	ka.step(dst, src)
	if n := testing.AllocsPerRun(50, func() {
		ka.step(dst, src)
	}); n != 0 {
		t.Fatalf("fused affine Step allocated %v times per run", n)
	}
}

// TestFusedCloseIdempotentAndSerialFallback: Close twice, then Step
// still works on the inline path.
func TestFusedCloseIdempotent(t *testing.T) {
	forceFusedParallel(t)
	p := randChain(t, 23, 64)
	pt := p.TransposeParallel(1)
	tel := NewUniformVector(64)
	k, err := NewFusedPower(pt, 0.85, tel, ResidualL2, 4)
	if err != nil {
		t.Fatal(err)
	}
	dst := NewVector(64)
	k.Step(dst, tel)
	want := dst.Clone()
	k.Close()
	k.Close()
	k.Step(dst, tel)
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("post-Close Step diverged at %d: %v != %v", i, dst[i], want[i])
		}
	}
}

// benchChain builds a larger fixture for the Step benchmarks.
func benchChain(b *testing.B, n int) (*CSR, Vector) {
	b.Helper()
	pt := randChain(b, 99, n).TransposeParallel(1)
	return pt, NewUniformVector(n)
}

// BenchmarkFusedPowerStep measures one fused iteration.
// CI gates this benchmark's -benchmem output at 0 allocs/op.
func BenchmarkFusedPowerStep(b *testing.B) {
	pt, tel := benchChain(b, 20000)
	k, err := NewFusedPower(pt, 0.85, tel, ResidualL2, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer k.Close()
	src, dst := tel.Clone(), NewVector(len(tel))
	k.Step(dst, src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step(dst, src)
		src, dst = dst, src
	}
}

// BenchmarkUnfusedPowerStep is the pre-fusion sequence, on one goroutine,
// for comparison.
func BenchmarkUnfusedPowerStep(b *testing.B) {
	pt, tel := benchChain(b, 20000)
	src, dst := tel.Clone(), NewVector(len(tel))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unfusedPowerStep(pt, 0.85, tel, src, dst)
		L2Distance(dst, src)
		src, dst = dst, src
	}
}

// testDenseBytes checks denseBytes — the one prediction the release window
// of a slab-backed solve is sized from — against the Rows-length vectors a
// solve really holds: the teleport or bias handed to the kernel, the
// kernel's own row-sum array, the starting iterate, and whatever the
// driver allocates on top (its second iterate, and at float32 the widened
// result), measured from the allocator.
func testDenseBytes[F Float](t *testing.T) {
	const n = 1 << 16 // vectors of 256 and 512 KiB: allocated at exactly their size
	pt := &Matrix[F]{Rows: n, ColsN: n, RowPtr: make([]int64, n+1)}
	var zero F
	size := int64(unsafe.Sizeof(zero))
	for _, affine := range []bool{false, true} {
		for _, dense := range []bool{false, true} {
			if affine && !dense {
				continue // the bias is always a vector
			}
			var aux []F
			if dense {
				aux = make([]F, n)
			}
			k, err := newFusedKernel(pt, 0.85, aux, affine, ResidualL2, 1)
			if err != nil {
				t.Fatal(err)
			}
			cur := make([]F, n)
			held := size*int64(len(aux)) + 8*int64(len(k.acc)) + size*int64(len(cur))

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			x, _ := iterateFused(k, cur, SolverOptions{MaxIter: 2})
			runtime.ReadMemStats(&after)
			if len(x) != n {
				t.Fatalf("solve: %d scores", len(x))
			}
			k.Close()

			want := denseBytes[F](n, dense)
			got := held + int64(after.TotalAlloc-before.TotalAlloc)
			// The driver's few small allocations are noise next to a vector.
			if got < want || got >= want+size*n/4 {
				t.Errorf("affine=%v dense=%v: denseBytes predicts %d, the solve holds %d (%d before the driver ran)",
					affine, dense, want, got, held)
			}
		}
	}
}

func TestDenseBytesMatchesAllocations(t *testing.T) {
	t.Run("float64", testDenseBytes[float64])
	t.Run("float32", testDenseBytes[float32])
}

package linalg

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refPowerStep32 is the float32 power step computed the slow, obvious
// way from the same float32 operands: per-row float64 dot products under
// the documented four-lane accumulation scheme (entry p of a row feeds
// lane p mod 4 in groups of four, the tail feeds lane 0, lanes combine as
// (s0+s1)+(s2+s3)), float32 rounding per output, serial lost-mass sum.
// The scheme is re-implemented here independently of rowSums32Go so the
// bitwise comparison checks the kernel's actual summation order, not
// just its plumbing.
func refPowerStep32(pt *CSR32, c float64, tel Vector32, src, dst Vector32) {
	for i := 0; i < pt.Rows; i++ {
		start := pt.RowPtr[i]
		rowLen := int(pt.RowPtr[i+1] - start)
		full := rowLen - rowLen%4 // entries past this point are the tail
		var lane [4]float64
		for q := 0; q < rowLen; q++ {
			p := start + int64(q)
			prod := float64(pt.Vals[p]) * float64(src[pt.Cols[p]])
			if q < full {
				lane[q%4] += prod
			} else {
				lane[0] += prod
			}
		}
		sum := (lane[0] + lane[1]) + (lane[2] + lane[3])
		dst[i] = float32(sum * c)
	}
	var s float64
	for _, v := range dst {
		s += float64(v)
	}
	lost := 1 - s
	if lost < 0 {
		lost = 0
	}
	for i := range dst {
		dst[i] = float32(float64(dst[i]) + lost*float64(tel[i]))
	}
}

// TestFusedPower32WorkerInvariance is the core determinism claim: the
// float32 power Step's iterate and residual are bitwise identical at
// every worker count from 1 through 16, and match the reference step bit
// for bit.
func TestFusedPower32WorkerInvariance(t *testing.T) {
	forceFusedParallel(t)
	for _, n := range []int{1, 2, 17, 97, 256} {
		pt := NewCSR32(randChain(t, int64(n), n).Transpose())
		tel := narrow[float32](NewUniformVector(n))
		src := make(Vector32, n)
		rng := rand.New(rand.NewSource(42))
		var sum float64
		for i := range src {
			src[i] = rng.Float32()
			sum += float64(src[i])
		}
		for i := range src {
			src[i] = float32(float64(src[i]) / sum)
		}

		want := make(Vector32, n)
		refPowerStep32(pt, 0.85, tel, src, want)

		var res1 float64
		for workers := 1; workers <= 16; workers++ {
			k, err := NewFusedPower(pt, 0.85, tel, ResidualL2, workers)
			if err != nil {
				t.Fatal(err)
			}
			dst := make(Vector32, n)
			res := k.Step(dst, src)
			k.Close()
			for i := range dst {
				if dst[i] != want[i] {
					t.Fatalf("n=%d workers=%d: dst[%d] = %v, reference %v", n, workers, i, dst[i], want[i])
				}
			}
			if workers == 1 {
				res1 = res
			} else if res != res1 {
				t.Fatalf("n=%d workers=%d: residual %v != workers=1 %v", n, workers, res, res1)
			}
		}
	}
}

// TestFusedAffine32WorkerInvariance is the affine counterpart.
func TestFusedAffine32WorkerInvariance(t *testing.T) {
	forceFusedParallel(t)
	for _, n := range []int{1, 17, 97, 256} {
		at := NewCSR32(randChain(t, 1000+int64(n), n).Transpose())
		rng := rand.New(rand.NewSource(43))
		b := make(Vector32, n)
		src := make(Vector32, n)
		for i := range b {
			b[i] = rng.Float32() * 0.15
			src[i] = rng.Float32()
		}
		var first Vector32
		var res1 float64
		for workers := 1; workers <= 16; workers++ {
			k, err := newFusedKernel(at, 0.85, b, true, ResidualL2, workers)
			if err != nil {
				t.Fatal(err)
			}
			dst := make(Vector32, n)
			res := k.step(dst, src)
			k.Close()
			if workers == 1 {
				first, res1 = dst, res
				continue
			}
			if res != res1 {
				t.Fatalf("n=%d workers=%d: residual %v != workers=1 %v", n, workers, res, res1)
			}
			for i := range dst {
				if dst[i] != first[i] {
					t.Fatalf("n=%d workers=%d: dst[%d] = %v != workers=1 %v", n, workers, i, dst[i], first[i])
				}
			}
		}
	}
}

// TestPowerMethodT32MatchesFloat64 checks the float32 solve lands within
// float32 rounding of the float64 fixed point and stays a probability
// distribution.
func TestPowerMethodT32MatchesFloat64(t *testing.T) {
	forceFusedParallel(t)
	p := randChain(t, 11, 200)
	pt := p.Transpose()
	tel := NewUniformVector(200)
	x64, st64, err := PowerMethodT(pt, 0.85, tel, nil, SolverOptions{})
	if err != nil || !st64.Converged {
		t.Fatalf("float64 solve: %v %+v", err, st64)
	}
	x32, st32, err := PowerMethodT(NewCSR32(pt), 0.85, tel, nil, SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !st32.Converged {
		t.Fatalf("float32 solve did not converge: %+v", st32)
	}
	if s := x32.Norm1(); math.Abs(s-1) > 1e-5 {
		t.Fatalf("float32 solution sums to %v", s)
	}
	for i := range x32 {
		if d := math.Abs(x32[i] - x64[i]); d > 1e-6 {
			t.Fatalf("x[%d]: float32 %v vs float64 %v (Δ %v)", i, x32[i], x64[i], d)
		}
	}
}

// TestSolver32TolClampAndRejects pins the float32 solver contract: Tol
// below Float32Tol is clamped (the solve still converges rather than
// spinning to MaxIter), and a mismatched teleport is rejected.
func TestSolver32TolClampAndRejects(t *testing.T) {
	p := randChain(t, 17, 80)
	pt32 := NewCSR32(p.Transpose())
	tel := NewUniformVector(80)
	x, st, err := PowerMethodT(pt32, 0.85, tel, nil, SolverOptions{Tol: 1e-15})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Converged {
		t.Fatalf("clamped solve did not converge: %+v", st)
	}
	if len(x) != 80 {
		t.Fatalf("solution length %d", len(x))
	}
	if st.Residual >= Float32Tol {
		t.Fatalf("converged residual %v not below Float32Tol", st.Residual)
	}
	if _, _, err := PowerMethodT(pt32, 0.85, NewUniformVector(7), nil, SolverOptions{}); err != ErrDimension {
		t.Fatalf("bad teleport: err=%v", err)
	}
}

// TestJacobiAffineT32MatchesFloat64 checks the float32 Jacobi solve
// against the float64 one.
func TestJacobiAffineT32MatchesFloat64(t *testing.T) {
	forceFusedParallel(t)
	a := randChain(t, 13, 150)
	at := a.Transpose()
	b := NewUniformVector(150)
	b.Scale(0.15)
	x64, st64, err := JacobiAffineT(at, 0.85, b, nil, SolverOptions{})
	if err != nil || !st64.Converged {
		t.Fatalf("float64 solve: %v %+v", err, st64)
	}
	x32, st32, err := JacobiAffineT(NewCSR32(at), 0.85, b, nil, SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !st32.Converged {
		t.Fatalf("float32 solve did not converge: %+v", st32)
	}
	for i := range x32 {
		if d := math.Abs(x32[i] - x64[i]); d > 1e-6 {
			t.Fatalf("x[%d]: float32 %v vs float64 %v", i, x32[i], x64[i])
		}
	}
}

// TestFused32StepZeroAlloc asserts the kernel's core promise at float32:
// after warm-up, Step allocates nothing.
func TestFused32StepZeroAlloc(t *testing.T) {
	forceFusedParallel(t)
	pt := NewCSR32(randChain(t, 21, 512).Transpose())
	tel := narrow[float32](NewUniformVector(512))
	k, err := NewFusedPower(pt, 0.85, tel, ResidualL2, 4)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := slices.Clone(tel), make(Vector32, 512)
	k.Step(dst, src)
	if n := testing.AllocsPerRun(50, func() {
		k.Step(dst, src)
		k.Step(src, dst)
	}); n != 0 {
		t.Fatalf("fused power32 Step allocated %v times per run", n)
	}
	k.Close()

	ka, err := newFusedKernel(pt, 0.85, tel, true, ResidualL2, 4)
	if err != nil {
		t.Fatal(err)
	}
	ka.step(dst, src)
	if n := testing.AllocsPerRun(50, func() {
		ka.step(dst, src)
	}); n != 0 {
		t.Fatalf("fused affine32 Step allocated %v times per run", n)
	}
	ka.Close()
}

// TestFused32CloseIdempotent mirrors the float64 kernel's Close contract.
func TestFused32CloseIdempotent(t *testing.T) {
	forceFusedParallel(t)
	pt := NewCSR32(randChain(t, 23, 64).Transpose())
	tel := narrow[float32](NewUniformVector(64))
	k, err := NewFusedPower(pt, 0.85, tel, ResidualL2, 4)
	if err != nil {
		t.Fatal(err)
	}
	dst := make(Vector32, 64)
	k.Step(dst, tel)
	want := slices.Clone(dst)
	k.Close()
	k.Close()
	k.Step(dst, tel)
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("post-Close Step diverged at %d: %v != %v", i, dst[i], want[i])
		}
	}
}

// BenchmarkFusedPower32Step measures one float32 fused iteration (with
// residual) on the same 20000-node fixture as BenchmarkFusedPowerStep,
// so the two report the float32 speedup directly. CI gates this
// benchmark's -benchmem output at 0 allocs/op.
func BenchmarkFusedPower32Step(b *testing.B) {
	pt, tel := benchChain(b, 20000)
	pt32, tel32 := NewCSR32(pt), narrow[float32](tel)
	k, err := NewFusedPower(pt32, 0.85, tel32, ResidualL2, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer k.Close()
	src, dst := slices.Clone(tel32), make(Vector32, len(tel32))
	k.Step(dst, src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Step(dst, src)
		src, dst = dst, src
	}
}

// BenchmarkFusedAffine32Step is the affine counterpart, CI-gated at
// 0 allocs/op alongside the power benchmark.
func BenchmarkFusedAffine32Step(b *testing.B) {
	pt, tel := benchChain(b, 20000)
	at32, b32 := NewCSR32(pt), narrow[float32](tel)
	k, err := newFusedKernel(at32, 0.85, b32, true, ResidualL2, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer k.Close()
	src, dst := slices.Clone(b32), make(Vector32, len(b32))
	k.step(dst, src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.step(dst, src)
		src, dst = dst, src
	}
}

// TestRowSums32Dispatch cross-checks the row-sum pass used by the
// float32 kernel against the portable reference on rows of
// adversarial lengths (empty, tail-only, exact groups, long), bitwise.
// On amd64 hosts with AVX2 this pits the assembly kernel against
// rowSums32Go; elsewhere it degenerates to self-consistency.
func TestRowSums32Dispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 500
	src := make(Vector32, n)
	for i := range src {
		src[i] = rng.Float32()
	}
	var entries []Entry
	for i := 0; i < n; i++ {
		rowLen := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 31, 64}[i%13]
		for j := 0; j < rowLen; j++ {
			entries = append(entries, Entry{Row: i, Col: rng.Intn(n), Val: rng.Float64()})
		}
	}
	csr, err := NewCSR(n, n, entries)
	if err != nil {
		t.Fatal(err)
	}
	m := NewCSR32(csr)
	want := make([]float64, n)
	rowSums32Go(m.RowPtr, m.Vals, m.Cols, src, want, 0, n)
	got := make([]float64, n)
	for i := range got {
		got[i] = math.NaN() // ensure every slot is written
	}
	rowSums32(m.RowPtr, m.Vals, m.Cols, src, got, 0, n)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("acc[%d] = %v (bits %#x), reference %v (bits %#x)",
				i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	// Partial ranges must leave rows outside [lo, hi) untouched.
	for i := range got {
		got[i] = -1
	}
	rowSums32(m.RowPtr, m.Vals, m.Cols, src, got, 100, 200)
	for i := range got {
		if i >= 100 && i < 200 {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("partial acc[%d] = %v, reference %v", i, got[i], want[i])
			}
		} else if got[i] != -1 {
			t.Fatalf("acc[%d] written outside [100,200)", i)
		}
	}
}

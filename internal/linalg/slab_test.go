package linalg

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sourcerank/internal/durable"
)

func writeSlabTemp(t *testing.T, m *CSR, prec Precision) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.slab")
	if err := WriteSlabCSR(nil, path, m, prec); err != nil {
		t.Fatalf("WriteSlabCSR: %v", err)
	}
	return path
}

func sameBits(t *testing.T, name string, a, b Vector) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d != %d", name, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: bit divergence at %d: %x != %x", name, i, math.Float64bits(a[i]), math.Float64bits(b[i]))
		}
	}
}

// testSlabRoundTrip commits each fixture as a slab of F's precision and
// checks the reopened matrix, with and without a residency budget, against
// want(fixture) bit for bit.
func testSlabRoundTrip[F Float](t *testing.T, want func(*CSR) *Matrix[F]) {
	prec := precisionOf[F]()
	for _, tc := range []struct {
		name string
		m    *CSR
	}{
		{"random", randCSR(t, 3, 37, 53, 400)},
		{"empty rows", mustCSR(t, 5, 5, []Entry{{2, 1, 0.5}, {2, 3, 0.5}})},
		{"no entries", mustCSR(t, 4, 4, nil)},
		{"zero rows", mustCSR(t, 0, 0, nil)},
		{"hub", hubCSR(t, 64, 64, 2000, 0.5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := writeSlabTemp(t, tc.m, prec)
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if want := SlabFileBytes(tc.m.Rows, int64(tc.m.NNZ()), prec); st.Size() != want {
				t.Fatalf("file size %d, want SlabFileBytes %d", st.Size(), want)
			}
			for _, budget := range []int64{0, 1 << 20} {
				s, err := OpenSlab[F](path, SlabOpenOptions{MaxResident: budget})
				if err != nil {
					t.Fatalf("OpenSlab(budget=%d): %v", budget, err)
				}
				sameCSR(t, tc.name, want(tc.m), s.Matrix())
				if err := s.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				if err := s.Close(); err != nil {
					t.Fatalf("second Close: %v", err)
				}
			}
		})
	}
}

func TestSlabRoundTripFloat64(t *testing.T) {
	testSlabRoundTrip(t, func(m *CSR) *CSR { return m })
}

// A float32 slab must reopen to NewCSR32's bits: the writer narrows
// exactly as the in-RAM mirror does.
func TestSlabRoundTripFloat32(t *testing.T) { testSlabRoundTrip(t, NewCSR32) }

// slabFilePayload reads a committed slab back and returns its payload with
// the durable trailer stripped.
func slabFilePayload(t testing.TB, path string) []byte {
	t.Helper()
	framed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := durable.Verify(framed)
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), payload...)
}

// testSlabValidation commits structurally hostile 3x3 slabs behind a valid
// CRC trailer — the one thing a forged file gets for free — and requires
// the open-time sweep to name the defect, both through the mapped view and
// through the copy-decode fallback a misaligned view takes.
func testSlabValidation[F Float](t *testing.T) {
	nan, inf := F(math.NaN()), F(math.Inf(1))
	for _, tc := range []struct {
		name   string
		rowPtr []int64
		cols   []int32
		vals   []F
		want   string // substring of the error; "" means the slab is valid
	}{
		{"valid", []int64{0, 2, 2, 3}, []int32{1, 2, 0}, []F{0.5, 0.5, 1}, ""},
		{"NaN", []int64{0, 2, 2, 3}, []int32{1, 2, 0}, []F{0.5, nan, 1}, "non-finite"},
		{"+Inf", []int64{0, 2, 2, 3}, []int32{1, 2, 0}, []F{inf, 0.5, 1}, "non-finite"},
		{"-Inf", []int64{0, 2, 2, 3}, []int32{1, 2, 0}, []F{0.5, 0.5, -inf}, "non-finite"},
		{"column past the end", []int64{0, 2, 2, 3}, []int32{1, 3, 0}, []F{0.5, 0.5, 1}, "out of range"},
		{"negative column", []int64{0, 2, 2, 3}, []int32{1, 2, -1}, []F{0.5, 0.5, 1}, "out of range"},
		{"decreasing columns", []int64{0, 2, 2, 3}, []int32{2, 1, 0}, []F{0.5, 0.5, 1}, "not strictly increasing"},
		{"repeated column", []int64{0, 2, 2, 3}, []int32{1, 1, 0}, []F{0.5, 0.5, 1}, "not strictly increasing"},
		{"row past the entries", []int64{0, 5, 5, 3}, []int32{1, 2, 0}, []F{0.5, 0.5, 1}, "outside the 3 stored entries"},
		{"row before the entries", []int64{0, -1, 2, 3}, []int32{1, 2, 0}, []F{0.5, 0.5, 1}, "negative extent"},
		{"shrinking row pointer", []int64{0, 2, 1, 3}, []int32{1, 2, 0}, []F{0.5, 0.5, 1}, "negative extent"},
		{"row pointer anchor", []int64{1, 2, 2, 3}, []int32{1, 2, 0}, []F{0.5, 0.5, 1}, "RowPtr[0]"},
		{"row pointer end", []int64{0, 2, 2, 2}, []int32{1, 2, 0}, []F{0.5, 0.5, 1}, "storage lengths inconsistent"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "m.slab")
			err := WriteSlabFile(nil, path, precisionOf[F](), SlabSections{
				Rows: 3, Cols: 3, NNZ: 3,
				RowPtr: func(w io.Writer) error { return WriteSection(w, tc.rowPtr) },
				ColIdx: func(w io.Writer) error { return WriteSection(w, tc.cols) },
				Values: func(w io.Writer) error { return WriteSection(w, tc.vals) },
			})
			if err != nil {
				t.Fatal(err)
			}
			check := func(via string, m *Matrix[F], err error) {
				t.Helper()
				if tc.want != "" {
					if err == nil || !strings.Contains(err.Error(), tc.want) {
						t.Fatalf("%s: err = %v, want one naming %q", via, err, tc.want)
					}
					return
				}
				if err != nil {
					t.Fatalf("%s: %v", via, err)
				}
				sameCSR(t, via, &Matrix[F]{Rows: 3, ColsN: 3, RowPtr: tc.rowPtr, Cols: tc.cols, Vals: tc.vals}, m)
			}
			for _, budget := range []int64{0, 64} {
				s, err := OpenSlab[F](path, SlabOpenOptions{MaxResident: budget})
				var m *Matrix[F]
				if err == nil {
					m = s.Matrix()
					defer s.Close()
				}
				check(fmt.Sprintf("mapped, budget %d", budget), m, err)
			}
			// One byte off any alignment, the view cannot alias its sections
			// and must decode them instead.
			payload := slabFilePayload(t, path)
			shifted := append(make([]byte, 1, 1+len(payload)), payload...)[1:]
			m, aliased, err := slabView[F](nil, shifted, 0)
			if aliased {
				t.Fatal("misaligned payload was aliased in place")
			}
			check("decoded", m, err)
		})
	}
}

func TestSlabValidation(t *testing.T) {
	t.Run("float64", testSlabValidation[float64])
	t.Run("float32", testSlabValidation[float32])
}

func TestSlabOpenWrongKind(t *testing.T) {
	m := randCSR(t, 5, 10, 10, 40)
	p64 := writeSlabTemp(t, m, Float64)
	p32 := writeSlabTemp(t, m, Float32)
	if _, err := OpenSlabCSR(p32, SlabOpenOptions{}); !errors.Is(err, ErrSlabFormat) {
		t.Fatalf("OpenSlabCSR on float32 slab = %v, want ErrSlabFormat", err)
	}
	if _, err := OpenSlab[float32](p64, SlabOpenOptions{}); !errors.Is(err, ErrSlabFormat) {
		t.Fatalf("OpenSlabCSR32 on float64 slab = %v, want ErrSlabFormat", err)
	}
}

func TestSlabOpenRejectsCorruption(t *testing.T) {
	m := randCSR(t, 5, 40, 40, 600)
	path := writeSlabTemp(t, m, Float64)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"payload bit flip", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x10
			return c
		}, durable.ErrCorrupt},
		{"truncation", func(b []byte) []byte { return b[:len(b)/2] }, durable.ErrCorrupt},
		{"empty", func(b []byte) []byte { return nil }, durable.ErrCorrupt},
		// Valid trailer over a hostile header: CRC passes, the slab
		// parser must reject it.
		{"bad magic reframed", func(b []byte) []byte {
			payload := append([]byte(nil), b[:len(b)-durable.TrailerSize]...)
			payload[0] ^= 0xff
			return durable.Frame(payload)
		}, ErrSlabFormat},
		{"oversized nnz reframed", func(b []byte) []byte {
			payload := append([]byte(nil), b[:len(b)-durable.TrailerSize]...)
			// nnz at offset 32: declare more entries than the sections hold.
			payload[32] = 0xff
			payload[33] = 0xff
			return durable.Frame(payload)
		}, ErrSlabFormat},
		{"short header reframed", func(b []byte) []byte {
			return durable.Frame(make([]byte, slabHeaderSize-1))
		}, ErrSlabFormat},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := filepath.Join(dir, "bad.slab")
			if err := os.WriteFile(bad, tc.mutate(data), 0o644); err != nil {
				t.Fatal(err)
			}
			for _, budget := range []int64{0, 1 << 20} {
				if _, err := OpenSlabCSR(bad, SlabOpenOptions{MaxResident: budget}); !errors.Is(err, tc.want) {
					t.Fatalf("OpenSlabCSR(budget=%d) = %v, want %v", budget, err, tc.want)
				}
			}
		})
	}
}

// slabWindowBudgets returns MaxResident values under which a fused kernel
// holding denseBytes of vectors over m gets no budget, less than one
// stripe of leftover, and release windows of one stripe, three stripes
// and the whole matrix — with the window each must report (0: none).
func slabWindowBudgets(rows, nnz int, entryW, denseBytes int64) (budgets, windows []int64) {
	stripe := int64(nnz/stripeCountFor(nnz, rows)) * entryW
	fixed := 8*int64(rows+1) + denseBytes
	return []int64{0, 4096, fixed + 4*stripe, fixed + 4*3*stripe, 1 << 30},
		[]int64{0, stripe, stripe, 3 * stripe, int64(nnz) * entryW}
}

// TestSlabSolveBitwiseIdentical is the core determinism contract of the
// out-of-core path: a slab-backed solve must produce byte-identical
// scores to the in-memory solve at every worker count, with and without
// a residency budget, whatever release window the budget buys.
func TestSlabSolveBitwiseIdentical(t *testing.T) {
	defer func(v int) { fusedMinNNZ = v }(fusedMinNNZ)
	defer func(v int) { fusedNNZPerStripe = v }(fusedNNZPerStripe)
	fusedMinNNZ = 1
	fusedNNZPerStripe = 64 // force many stripes on the small fixture

	p := stochasticChain(t, rand.New(rand.NewSource(17)), 400)
	pt := p.Transpose()
	alpha := 0.85
	tele := NewUniformVector(pt.Rows)
	opt := SolverOptions{Tol: 1e-12, Workers: 1}
	ref, st, err := PowerMethodT(pt, alpha, tele, nil, opt)
	if err != nil || !st.Converged {
		t.Fatalf("reference solve: %v %+v", err, st)
	}

	path := writeSlabTemp(t, pt, Float64)
	budgets, windows := slabWindowBudgets(pt.Rows, pt.NNZ(), 12, 3*8*int64(pt.Rows))
	for bi, budget := range budgets {
		for _, workers := range []int{1, 2, 3, 4, 8} {
			s, err := OpenSlabCSR(path, SlabOpenOptions{MaxResident: budget})
			if err != nil {
				t.Fatal(err)
			}
			opt := SolverOptions{Tol: 1e-12, Workers: workers}
			got, st, err := PowerMethodT(s.Matrix(), alpha, tele, nil, opt)
			if err != nil || !st.Converged {
				t.Fatalf("slab solve (budget=%d workers=%d): %v %+v", budget, workers, err, st)
			}
			sameBits(t, "slab power", ref, got)

			// Affine path over the same slab-backed operand.
			b := tele.Clone()
			b.Scale(1 - alpha)
			jref, _, err := JacobiAffineT(pt, alpha, b, nil, opt)
			if err != nil {
				t.Fatal(err)
			}
			jgot, _, err := JacobiAffineT(s.Matrix(), alpha, b, nil, opt)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "slab affine", jref, jgot)
			if rs := s.Residency(); rs.WindowBytes != windows[bi] || (rs.ReleaseCalls == 0) != (bi == 0 || bi == len(budgets)-1) {
				t.Fatalf("budget=%d workers=%d: residency %+v, want a %d-byte window", budget, workers, rs, windows[bi])
			}
			s.Close()
		}
	}
}

// TestSlabSolve32BitwiseIdentical mirrors the contract for the float32
// kernels over a Float32 file.
func TestSlabSolve32BitwiseIdentical(t *testing.T) {
	defer func(v int) { fusedMinNNZ = v }(fusedMinNNZ)
	defer func(v int) { fusedNNZPerStripe = v }(fusedNNZPerStripe)
	fusedMinNNZ = 1
	fusedNNZPerStripe = 64

	p := stochasticChain(t, rand.New(rand.NewSource(23)), 300)
	pt := p.Transpose()
	alpha := 0.85
	tele := NewUniformVector(pt.Rows)
	opt := SolverOptions{Workers: 1}
	mem32 := NewCSR32(pt)
	ref, st, err := PowerMethodT(mem32, alpha, tele, nil, opt)
	if err != nil || !st.Converged {
		t.Fatalf("reference float32 solve: %v %+v", err, st)
	}

	path := writeSlabTemp(t, pt, Float32)
	budgets, windows := slabWindowBudgets(pt.Rows, pt.NNZ(), 8, (8+3*4+8)*int64(pt.Rows))
	for bi, budget := range budgets {
		for _, workers := range []int{1, 2, 4} {
			s, err := OpenSlab[float32](path, SlabOpenOptions{MaxResident: budget})
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := PowerMethodT(s.Matrix(), alpha, tele, nil, SolverOptions{Workers: workers})
			if err != nil || !st.Converged {
				t.Fatalf("slab32 solve (budget=%d workers=%d): %v %+v", budget, workers, err, st)
			}
			sameBits(t, "slab32 power", ref, got)
			if rs := s.Residency(); rs.WindowBytes != windows[bi] || (rs.ReleaseCalls == 0) != (bi == 0 || bi == len(budgets)-1) {
				t.Fatalf("budget=%d workers=%d: residency %+v, want a %d-byte window", budget, workers, rs, windows[bi])
			}
			s.Close()
		}
	}
}

// TestPowerMethodTUniformMatchesExplicit pins the implicit-uniform
// teleport kernel to the materialized one, bit for bit, across worker
// counts — the substitution the out-of-core bench relies on to shed a
// resident vector.
func TestPowerMethodTUniformMatchesExplicit(t *testing.T) {
	defer func(v int) { fusedMinNNZ = v }(fusedMinNNZ)
	defer func(v int) { fusedNNZPerStripe = v }(fusedNNZPerStripe)
	fusedMinNNZ = 1
	fusedNNZPerStripe = 64

	p := stochasticChain(t, rand.New(rand.NewSource(31)), 350)
	pt := p.Transpose()
	alpha := 0.85
	tele := NewUniformVector(pt.Rows)
	for _, workers := range []int{1, 2, 3, 8} {
		opt := SolverOptions{Tol: 1e-12, Workers: workers}
		want, st1, err := PowerMethodT(pt, alpha, tele, nil, opt)
		if err != nil || !st1.Converged {
			t.Fatalf("explicit: %v %+v", err, st1)
		}
		got, st2, err := PowerMethodTUniform(pt, alpha, opt)
		if err != nil || !st2.Converged {
			t.Fatalf("uniform: %v %+v", err, st2)
		}
		if st1.Iterations != st2.Iterations || math.Float64bits(st1.Residual) != math.Float64bits(st2.Residual) {
			t.Fatalf("stats diverge: %+v vs %+v", st1, st2)
		}
		sameBits(t, "uniform teleport", want, got)
	}
}

// TestSlabSolveUniformOnSlab runs the full out-of-core configuration in
// miniature: slab-backed operand, residency budget, implicit uniform
// teleport — against the plain in-memory explicit-teleport solve.
func TestSlabSolveUniformOnSlab(t *testing.T) {
	defer func(v int) { fusedMinNNZ = v }(fusedMinNNZ)
	defer func(v int) { fusedNNZPerStripe = v }(fusedNNZPerStripe)
	fusedMinNNZ = 1
	fusedNNZPerStripe = 64

	p := stochasticChain(t, rand.New(rand.NewSource(41)), 500)
	pt := p.Transpose()
	alpha := 0.9
	ref, st, err := PowerMethodT(pt, alpha, NewUniformVector(pt.Rows), nil, SolverOptions{Workers: 1})
	if err != nil || !st.Converged {
		t.Fatalf("reference: %v %+v", err, st)
	}
	path := writeSlabTemp(t, pt, Float64)
	for _, workers := range []int{1, 3} {
		s, err := OpenSlabCSR(path, SlabOpenOptions{MaxResident: 4096})
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := PowerMethodTUniform(s.Matrix(), alpha, SolverOptions{Workers: workers})
		if err != nil || !st.Converged {
			t.Fatalf("slab uniform solve: %v %+v", err, st)
		}
		sameBits(t, "slab uniform", ref, got)
		s.Close()
	}
}

func TestSlabPayloadBytes(t *testing.T) {
	// Alignment padding: 88 + 8·(rows+1) + 4·nnz must be rounded to 8.
	if got := SlabPayloadBytes(1, 1, Float64); got != 88+16+4+4+8 {
		t.Fatalf("SlabPayloadBytes(1,1,f64) = %d", got)
	}
	if got := SlabPayloadBytes(1, 2, Float64); got != 88+16+8+0+16 {
		t.Fatalf("SlabPayloadBytes(1,2,f64) = %d", got)
	}
	if got := SlabPayloadBytes(0, 0, Float32); got != 88+8 {
		t.Fatalf("SlabPayloadBytes(0,0,f32) = %d", got)
	}
}

func TestWriteSlabFileEnforcesSectionLengths(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.slab")
	err := WriteSlabFile(nil, path, Float64, SlabSections{
		Rows: 2, Cols: 2, NNZ: 1,
		// RowPtr writes nothing: 0 bytes against a declared 24.
		RowPtr: func(io.Writer) error { return nil },
		ColIdx: func(w io.Writer) error { return WriteSection(w, []int32{0}) },
		Values: func(w io.Writer) error { return WriteSection(w, []float64{1}) },
	})
	if err == nil {
		t.Fatal("WriteSlabFile accepted a short rowptr section")
	}
	// The commit protocol must not have left the target behind.
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatalf("target exists after failed write: %v", serr)
	}
}

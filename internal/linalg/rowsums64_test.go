package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The tests in this file hold the dispatched row-sum passes (rowSums64 and
// rowSums32: the AVX2 kernels on hosts that have them) to rowSums64Go and
// rowSums32Go, bit for bit and fault for fault. On a host without the
// kernels they degenerate to self-consistency.

type rowSumsPass[F Float] func(rowPtr []int64, vals []F, cols []int32, src []F, sums []float64, lo, hi int)

// unwritten marks the sums slots a pass has not stored to.
var unwritten = math.Float64frombits(0x7ff8_0000_dead_beef)

// runRowSums runs pass over rows [lo, hi) into a fresh sums array of
// width entries per row and returns it together with the text of the
// runtime panic the pass died of, if it did.
func runRowSums[F Float](pass rowSumsPass[F], width int, rowPtr []int64, vals []F, cols []int32, src []F, lo, hi int) (sums []float64, panicked string) {
	sums = make([]float64, width*max(len(rowPtr)-1, 0))
	for i := range sums {
		sums[i] = unwritten
	}
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Sprint(r)
		}
	}()
	pass(rowPtr, vals, cols, src, sums, lo, hi)
	return sums, ""
}

// checkRowSums64 fails unless the dispatched float64 pass and the Go loop
// leave the same sums — the rows they wrote and the rows they did not —
// and end the same way. Sums compare by bit pattern, except that any NaN
// equals any NaN: which payload survives NaN·NaN or NaN+NaN depends on
// operand order, which the Go spec leaves to the compiler (the kernel
// follows the plain amd64 build's; the instrumented build `go test -fuzz`
// makes of this package already orders one add the other way).
func checkRowSums64(t *testing.T, rowPtr []int64, vals []float64, cols []int32, src []float64, lo, hi int) {
	t.Helper()
	checkPass(t, rowSums64, rowSums64Go, rowPtr, vals, cols, src, lo, hi)
}

// checkRowSums32 is checkRowSums64 for the float32 pass.
func checkRowSums32(t *testing.T, rowPtr []int64, vals []float32, cols []int32, src []float32, lo, hi int) {
	t.Helper()
	checkPass(t, rowSums32, rowSums32Go, rowPtr, vals, cols, src, lo, hi)
}

func checkPass[F Float](t *testing.T, pass, ref rowSumsPass[F], rowPtr []int64, vals []F, cols []int32, src []F, lo, hi int) {
	t.Helper()
	want, wantPanic := runRowSums(ref, 1, rowPtr, vals, cols, src, lo, hi)
	got, gotPanic := runRowSums(pass, 1, rowPtr, vals, cols, src, lo, hi)
	if gotPanic != wantPanic {
		t.Fatalf("rows [%d,%d): %s pass ended with %q, Go loop with %q", lo, hi, RowSumsImpl(), gotPanic, wantPanic)
	}
	sameSums(t, fmt.Sprintf("rows [%d,%d)", lo, hi), got, want, "Go loop")
}

// sameSums fails unless got is want bit for bit, NaN payloads aside.
func sameSums(t *testing.T, what string, got, want []float64, ref string) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: sums[%d] = %v (bits %#x), %s %v (bits %#x)",
				what, i, got[i], math.Float64bits(got[i]), ref, want[i], math.Float64bits(want[i]))
		}
	}
}

// checkRowSums64Pair is checkRowSums64 for the pair pass over src2, two
// columns interleaved: the dispatched pair pass must leave what
// rowSums64PairGo leaves and end as it ends, and each column of the Go
// pair loop must be what rowSums64Go leaves over that column alone, on the
// rows both write.
func checkRowSums64Pair(t *testing.T, rowPtr []int64, vals []float64, cols []int32, src2 []float64, lo, hi int) {
	t.Helper()
	what := fmt.Sprintf("pair, rows [%d,%d)", lo, hi)
	want, wantPanic := runRowSums(rowSums64PairGo, 2, rowPtr, vals, cols, src2, lo, hi)
	got, gotPanic := runRowSums(rowSums64Pair, 2, rowPtr, vals, cols, src2, lo, hi)
	if gotPanic != wantPanic {
		t.Fatalf("%s: %s pass ended with %q, Go loop with %q", what, RowSumsImpl(), gotPanic, wantPanic)
	}
	sameSums(t, what, got, want, "Go pair loop")
	for j := 0; j < 2; j++ {
		src := make([]float64, len(src2)/2)
		for c := range src {
			src[c] = src2[2*c+j]
		}
		solo, soloPanic := runRowSums(rowSums64Go, 1, rowPtr, vals, cols, src, lo, hi)
		if (soloPanic != "") != (wantPanic != "") {
			t.Fatalf("%s: column %d alone ended with %q, the pair with %q", what, j, soloPanic, wantPanic)
		}
		lane := make([]float64, len(solo))
		for i := range lane {
			lane[i] = want[2*i+j]
		}
		sameSums(t, fmt.Sprintf("%s, column %d", what, j), lane, solo, "solo Go loop")
	}
}

// interleave returns the pair operand whose column 0 is src and whose
// column 1 is src reversed, so the two lanes gather different values.
func interleave[F Float](src []F) []F {
	src2 := make([]F, 2*len(src))
	for c, v := range src {
		src2[2*c], src2[2*(len(src)-1-c)+1] = v, v
	}
	return src2
}

// hostile64 are the operand values a row sum treats specially: both
// zeros, the denormal and normal extremes, infinities and NaN. Their
// products include -0 (·x for negative x), Inf·0 = NaN and overflow to
// ±Inf; their sums include Inf−Inf.
var hostile64 = []float64{
	0, math.Copysign(0, -1), 1, -1, 5e-324, -5e-324, 2.2250738585072014e-308,
	math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 1e-200, -1e200,
}

// TestRowSums64Dispatch cross-checks the dispatched pass against the Go
// loop on every row length from 0 through 13 — no trip, the masked trip
// alone for each prefix, and one to three full trips with every tail —
// with empty rows first and last and the final entry at len(cols)
// exactly, over three operand kinds: a probability chain's (positive,
// below one), an affine system's (mixed signs across 600 binades) and
// hostile values.
func TestRowSums64Dispatch(t *testing.T) { testRowSums64Dispatch(t, checkRowSums64) }

// TestRowSums64PairDispatch is TestRowSums64Dispatch for the pair pass,
// over src and src reversed interleaved.
func TestRowSums64PairDispatch(t *testing.T) { testRowSums64Dispatch(t, checkInterleaved) }

// rowSumsCheck is checkRowSums64, checkInterleaved or checkRowSums32.
type rowSumsCheck[F Float] func(t *testing.T, rowPtr []int64, vals []F, cols []int32, src []F, lo, hi int)

// checkInterleaved runs checkRowSums64Pair over interleave(src).
func checkInterleaved(t *testing.T, rowPtr []int64, vals []float64, cols []int32, src []float64, lo, hi int) {
	t.Helper()
	checkRowSums64Pair(t, rowPtr, vals, cols, interleave(src), lo, hi)
}

func testRowSums64Dispatch(t *testing.T, check rowSumsCheck[float64]) {
	const n = 14 * 30
	rng := rand.New(rand.NewSource(9))
	kinds := []struct {
		name string
		draw func() float64
	}{
		{"chain", rng.Float64},
		{"affine", func() float64 { return math.Ldexp(rng.Float64()-0.5, rng.Intn(600)-300) }},
		{"hostile", func() float64 {
			if rng.Intn(3) == 0 {
				return rng.NormFloat64()
			}
			return hostile64[rng.Intn(len(hostile64))]
		}},
	}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			src := make([]float64, n)
			for i := range src {
				src[i] = kind.draw()
			}
			rowPtr := []int64{0}
			var vals []float64
			var cols []int32
			for i := 0; i < n; i++ {
				for j := 0; j < i%14; j++ { // row 0 is empty, row n-1 has 13 entries
					vals = append(vals, kind.draw())
					cols = append(cols, int32(rng.Intn(n)))
				}
				rowPtr = append(rowPtr, int64(len(cols)))
			}
			rowPtr = append(rowPtr, rowPtr[n]) // and an empty last row
			check(t, rowPtr, vals, cols, src, 0, n+1)
			// A partial range leaves the rows outside it alone.
			check(t, rowPtr, vals, cols, src, 100, 200)
			check(t, rowPtr, vals, cols, src, 77, 77)
		})
	}
}

// TestRowSums64CorruptOperand feeds both passes operands that
// Matrix.Validate would reject. Each must end as the Go loop ends — the
// same index-out-of-range error, or none where the Go loop reads a
// decreasing RowPtr as an empty row — with the rows before the bad one
// written and the rows from it on untouched.
func TestRowSums64CorruptOperand(t *testing.T) {
	testRowSumsCorruptOperand(t, checkRowSums64, rowSums64, 1)
}

// TestRowSums32CorruptOperand is TestRowSums64CorruptOperand for the
// float32 pass, whose rows of five entries end in a masked tail of one:
// its bad columns sit in a full group, in a tail, and in a one-entry row.
func TestRowSums32CorruptOperand(t *testing.T) {
	testRowSumsCorruptOperand(t, checkRowSums32, rowSums32, 1)
}

// TestRowSums64PairCorruptOperand is TestRowSums64CorruptOperand for the
// pair pass, plus a src of odd length, whose last element is no column's.
func TestRowSums64PairCorruptOperand(t *testing.T) {
	testRowSumsCorruptOperand(t, checkInterleaved, rowSums64Pair, 2)
	rowPtr, vals, cols := []int64{0, 2, 3}, []float64{.5, .25, 1}, []int32{0, 1, 2}
	for _, lenSrc := range []int{5, 6, 7} {
		src2 := make([]float64, lenSrc)
		for i := range src2 {
			src2[i] = float64(i) + 0.5
		}
		checkRowSums64Pair(t, rowPtr, vals, cols, src2, 0, 2)
	}
}

func testRowSumsCorruptOperand[F Float](t *testing.T, check rowSumsCheck[F], pass rowSumsPass[F], width int) {
	good := func() *Matrix[F] {
		return &Matrix[F]{
			Rows: 4, ColsN: 5,
			RowPtr: []int64{0, 5, 6, 11, 12},
			Cols:   []int32{0, 1, 2, 3, 4, 2, 4, 3, 2, 1, 0, 3},
			Vals:   []F{.1, .2, .3, .4, .5, .6, .7, .8, .9, 1, 1.1, 1.2},
		}
	}
	src := []F{1, 2, 3, 4, 5}
	for _, tc := range []struct {
		name    string
		corrupt func(m *Matrix[F])
		panics  bool
	}{
		{"valid", func(m *Matrix[F]) {}, false},
		{"col == ColsN", func(m *Matrix[F]) { m.Cols[8] = 5 }, true},
		{"col == ColsN in a masked trip", func(m *Matrix[F]) { m.Cols[10] = 5 }, true},
		{"col huge", func(m *Matrix[F]) { m.Cols[5] = math.MaxInt32 }, true},
		{"col negative", func(m *Matrix[F]) { m.Cols[7] = -1 }, true},
		{"col MinInt32", func(m *Matrix[F]) { m.Cols[0] = math.MinInt32 }, true},
		{"RowPtr decreasing", func(m *Matrix[F]) { m.RowPtr[2] = 3 }, false},
		{"RowPtr negative", func(m *Matrix[F]) { m.RowPtr[1] = -3 }, true},
		{"RowPtr negative pair", func(m *Matrix[F]) { m.RowPtr[1], m.RowPtr[2] = -9, -2 }, true},
		{"RowPtr past len(Vals)", func(m *Matrix[F]) { m.RowPtr[4] = 13 }, true},
		{"RowPtr past len(Cols) only", func(m *Matrix[F]) { m.Cols = m.Cols[:11] }, true},
		{"RowPtr far past len(Vals)", func(m *Matrix[F]) { m.RowPtr[3], m.RowPtr[4] = 1<<40, 1<<41 }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := good()
			tc.corrupt(m)
			check(t, m.RowPtr, m.Vals, m.Cols, src, 0, m.Rows)
			wide := src
			if width == 2 {
				wide = interleave(src)
			}
			if _, panicked := runRowSums(pass, width, m.RowPtr, m.Vals, m.Cols, wide, 0, m.Rows); (panicked != "") != tc.panics {
				t.Errorf("pass ended with %q, want a panic: %v", panicked, tc.panics)
			}
			// What the kernel is not handed it must not index: an empty src,
			// a sums or RowPtr shorter than the range.
			check(t, m.RowPtr, m.Vals, m.Cols, nil, 0, m.Rows)
			check(t, m.RowPtr, m.Vals, m.Cols, src, 0, m.Rows+1)
			check(t, m.RowPtr, m.Vals, m.Cols, src, -1, m.Rows)
		})
	}
}

// rowSums64FromBytes decodes a fuzz input into a row-sum operand that may
// be corrupt. Byte 0 sizes src; the next len(src) bytes choose its
// values; the rest are (op, arg) pairs: op ≥ 0xf8 ends the row, op 0xf7
// ends it at an arbitrary RowPtr, ops 0xf0–0xf6 add an entry whose column
// is arg as a signed byte — possibly negative or past src — and any other
// op adds an in-range entry whose value op chooses.
func rowSums64FromBytes(data []byte) (rowPtr []int64, vals []float64, cols []int32, src []float64) {
	value := func(b byte) float64 {
		if int(b) < len(hostile64) {
			return hostile64[b]
		}
		return math.Ldexp(float64(int(b)-128), int(b%64)-32)
	}
	if len(data) == 0 {
		return []int64{0}, nil, nil, nil
	}
	n := 1 + int(data[0])%64
	data = data[1:]
	src = make([]float64, n)
	for i := range src {
		if i < len(data) {
			src[i] = value(data[i])
		}
	}
	data = data[min(n, len(data)):]
	rowPtr = []int64{0}
	for ; len(data) >= 2; data = data[2:] {
		switch op, arg := data[0], data[1]; {
		case op >= 0xf8:
			rowPtr = append(rowPtr, int64(len(cols)))
		case op == 0xf7:
			rowPtr = append(rowPtr, int64(int8(arg)))
		default:
			col := int32(int(arg) % n)
			if op >= 0xf0 {
				col = int32(int8(arg))
			}
			vals, cols = append(vals, value(op)), append(cols, col)
		}
	}
	return append(rowPtr, int64(len(cols))), vals, cols, src
}

// FuzzRowSums64 holds the dispatched pass to the Go loop on arbitrary
// operands, valid and corrupt, and the pair pass to the Go pair loop and
// to the solo loop per column over the operand's src and src reversed.
func FuzzRowSums64(f *testing.F) {
	addRowSumsSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		rowPtr, vals, cols, src := rowSums64FromBytes(data)
		checkRowSums64(t, rowPtr, vals, cols, src, 0, len(rowPtr)-1)
		checkInterleaved(t, rowPtr, vals, cols, src, 0, len(rowPtr)-1)
	})
}

// FuzzRowSums32 holds the dispatched float32 pass to rowSums32Go on the
// same operands, narrowed to float32: every row length, so every full
// group and masked tail, over arbitrary columns and values.
func FuzzRowSums32(f *testing.F) {
	addRowSumsSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		rowPtr, vals, cols, src := rowSums64FromBytes(data)
		checkRowSums32(t, rowPtr, narrow[float32](vals), cols, narrow[float32](src), 0, len(rowPtr)-1)
	})
}

// addRowSumsSeeds adds the seed corpus of both fuzz targets. It spells
// out the cases of TestRowSums64Dispatch and TestRowSums64CorruptOperand:
// rows of 0 through 13 entries between empty rows, hostile values, columns
// and RowPtr entries out of range.
func addRowSumsSeeds(f *testing.F) {
	var lengths []byte
	for rowLen := 0; rowLen <= 13; rowLen++ {
		for j := 0; j < rowLen; j++ {
			lengths = append(lengths, byte(17*rowLen+j), byte(5*j+rowLen))
		}
		lengths = append(lengths, 0xff, 0)
	}
	f.Add(append([]byte{16, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 200, 90, 0xff, 0}, lengths...))
	f.Add(append([]byte{63}, lengths...))
	hostile := []byte{3, 9, 1, 4, 11}
	for a := 0; a < len(hostile64); a++ {
		hostile = append(hostile, byte(a), byte(a%4))
	}
	f.Add(append(hostile, 0xff, 0, 11, 0, 0, 1, 9, 2, 10, 3, 1, 0))
	f.Add([]byte{4, 1, 2, 3, 4, 40, 0, 50, 1, 60, 2, 70, 3, 80, 0, 0xf0, 4})   // col == len(src), masked trip
	f.Add([]byte{4, 1, 2, 3, 4, 40, 0, 0xf1, 0x80, 60, 2, 70, 3})              // col -128, full trip
	f.Add([]byte{4, 1, 2, 3, 4, 40, 0, 50, 1, 60, 2, 0xf7, 1, 70, 3, 0xff, 0}) // RowPtr decreasing
	f.Add([]byte{4, 1, 2, 3, 4, 40, 0, 0xf7, 0xfd, 50, 1, 0xf7, 100, 60, 2})   // RowPtr negative, then past the end
	f.Add([]byte{})
}

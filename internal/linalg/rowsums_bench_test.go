package linalg_test

import (
	"testing"

	"sourcerank/internal/gen"
	"sourcerank/internal/linalg"
	"sourcerank/internal/rank"
)

// BenchmarkRowSums64 times the float64 row-sum pass alone — no scaling, no
// lost mass, no residual, one goroutine — over the operand the page-level
// solves run on: Mᵀ of the UK2002 preset at ×0.01, whose rows are
// in-link lists (most of them shorter than one four-entry group, a few
// thousands long) and whose columns have a crawl's locality. "go" is
// rowSums64Go, "avx2" the dispatched pass on a host that has the kernel;
// both report ns/entry, the figure DESIGN.md §13 quotes. "pair" is the
// dispatched pair pass over two interleaved columns, reporting ns/entry
// per column, so it reads directly against the solo pass of this host.
// "f32" is the dispatched float32 pass over the same operand narrowed, so
// DESIGN.md quotes both precisions from one benchmark.
func BenchmarkRowSums64(b *testing.B) {
	ds, err := gen.GeneratePreset(gen.UK2002, 0.01, 1)
	if err != nil {
		b.Fatal(err)
	}
	mt := rank.TransitionT(ds.Pages.ToGraph())
	src, sums := linalg.NewUniformVector(2*mt.Rows), linalg.NewVector(2*mt.Rows)
	b.Run("f32", func(b *testing.B) {
		mt32, src32 := linalg.NewCSR32(mt), make(linalg.Vector32, mt.Rows)
		for i := range src32 {
			src32[i] = float32(src[i])
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			linalg.RowSums32(mt32.RowPtr, mt32.Vals, mt32.Cols, src32, sums, 0, mt.Rows)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(mt.NNZ()), "ns/entry")
	})
	for _, impl := range []struct {
		name string
		cols int
		pass func(rowPtr []int64, vals []float64, cols []int32, src, sums []float64, lo, hi int)
	}{{"go", 1, linalg.RowSums64Go}, {"avx2", 1, linalg.RowSums64}, {"pair", 2, linalg.RowSums64Pair}} {
		b.Run(impl.name, func(b *testing.B) {
			if impl.name == "avx2" && linalg.RowSumsImpl() != impl.name {
				b.Skipf("this host runs the %q row sums", linalg.RowSumsImpl())
			}
			src, sums := src[:impl.cols*mt.Rows], sums[:impl.cols*mt.Rows]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				impl.pass(mt.RowPtr, mt.Vals, mt.Cols, src, sums, 0, mt.Rows)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(mt.NNZ()*impl.cols), "ns/entry")
		})
	}
}

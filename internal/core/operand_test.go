package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"sourcerank/internal/gen"
	"sourcerank/internal/linalg"
	"sourcerank/internal/pagegraph"
	"sourcerank/internal/rank"
	"sourcerank/internal/source"
	"sourcerank/internal/throttle"
)

// byteSource hands out fuzz bytes one at a time, then zeros.
type byteSource []byte

func (b *byteSource) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0])
	*b = (*b)[1:]
	return v
}

// fuzzTransition draws an n-row transition matrix from src: dangling rows
// (a self-loop of weight 1), structurally empty rows, and rows of random
// out-links whose diagonal is a structural zero, a positive weight or
// absent. Weights are drawn from {0, 1, 2, 3} and normalized, so a row
// can carry explicit zeros and a row of all-zero weights stays zero.
func fuzzTransition(src *byteSource, n int) *linalg.CSR {
	t := &linalg.CSR{Rows: n, ColsN: n, RowPtr: make([]int64, n+1)}
	for i := 0; i < n; i++ {
		switch mode := src.next() % 5; mode {
		case 0:
			t.Cols, t.Vals = append(t.Cols, int32(i)), append(t.Vals, 1)
		case 1:
		default:
			row := make([]float64, n)
			has := make([]bool, n)
			for d := src.next() % 6; d > 0; d-- {
				j := src.next() % n
				has[j], row[j] = true, float64(src.next()%4)
			}
			has[i], row[i] = mode != 4, 0
			if mode == 3 {
				row[i] = float64(1 + src.next()%3)
			}
			var total float64
			for j := range row {
				total += row[j]
			}
			for j := range row {
				if has[j] {
					if total > 0 {
						row[j] /= total
					}
					t.Cols, t.Vals = append(t.Cols, int32(j)), append(t.Vals, row[j])
				}
			}
		}
		t.RowPtr[i+1] = int64(len(t.Cols))
	}
	return t
}

// fuzzKappa draws κ from src: all zero, binary, or graded with 0 and 1
// among the values.
func fuzzKappa(src *byteSource, n int) []float64 {
	kappa := make([]float64, n)
	mode := src.next() % 3
	for i := range kappa {
		switch v := src.next(); mode {
		case 1:
			kappa[i] = float64(v % 2)
		case 2:
			kappa[i] = min(float64(v%64)/48, 1)
		}
	}
	return kappa
}

// oracleOperand is the operand the old way round: T″ by throttle.Apply,
// its transpose, and the Jacobi split of that.
func oracleOperand(t *testing.T, tm *linalg.CSR, kappa []float64, alpha float64) (*linalg.CSR, linalg.Vector) {
	t.Helper()
	tpp, err := throttle.Apply(tm, kappa)
	if err != nil {
		t.Fatal(err)
	}
	s := rank.NewSplit(tpp.TransposeParallel(1), alpha)
	return s.M, s.Bias(linalg.NewUniformVector(tm.Rows))
}

// sameBits reports whether two vectors are equal bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func checkOperand(t *testing.T, what string, op operand, m *linalg.CSR, bias linalg.Vector) {
	t.Helper()
	if !slices.Equal(op.m.RowPtr, m.RowPtr) || !slices.Equal(op.m.Cols, m.Cols) || !sameBits(op.m.Vals, m.Vals) || !sameBits(op.bias, bias) {
		t.Fatalf("%s operand differs from the split of Apply's transpose:\nrowPtr %v\n  want %v\ncols %v\n  want %v\nvals %v\n  want %v\nbias %v\n  want %v",
			what, op.m.RowPtr, m.RowPtr, op.m.Cols, m.Cols, op.m.Vals, m.Vals, op.bias, bias)
	}
}

// FuzzJacobiOperand: the operand built straight from T equals
// rank.NewSplit(throttle.Apply(T, κ).TransposeParallel(1), α) and its
// Bias(uniform) bit for bit, built fresh and refreshed over the same
// sparsity with new values, on one worker or striped. The refresh
// rewrites the retained arrays exactly when throttle.Row self-loops the
// same rows as before.
func FuzzJacobiOperand(f *testing.F) {
	f.Add([]byte{4, 0, 0, 2, 3, 1, 2, 2, 3, 3, 1, 3, 0, 1, 2, 4, 2, 0, 1, 1, 0, 1, 1, 0, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Add([]byte{7, 1, 1, 3, 2, 1, 1, 2, 0, 1, 4, 3, 3, 1, 5, 2, 1, 6, 3, 0, 0, 1, 2, 4, 1, 0, 1, 1, 0, 1, 0, 1, 1})
	f.Add([]byte{11, 2, 2, 2, 4, 3, 1, 7, 2, 9, 1, 3, 5, 1, 6, 2, 0, 1, 4, 2, 3, 3, 8, 3, 10, 1, 2, 40, 64, 12, 0, 63, 48, 33, 2, 7, 1})
	f.Add([]byte{2, 3, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := byteSource(data)
		n := 1 + src.next()%24
		alpha := []float64{0.85, 0.5, 0.99, 0.15}[src.next()%4]
		workers := 1 + src.next()%3
		defer func(v int) { operandStripeNNZ = v }(operandStripeNNZ)
		operandStripeNNZ = 1
		tm := fuzzTransition(&src, n)
		kappa := fuzzKappa(&src, n)

		op, err := jacobiOperand(tm, kappa, alpha, workers, operand{})
		if err != nil {
			t.Fatal(err)
		}
		m, bias := oracleOperand(t, tm, kappa, alpha)
		checkOperand(t, "fresh", op, m, bias)

		// New values over the same RowPtr and Cols.
		drift := &linalg.CSR{Rows: n, ColsN: n, RowPtr: tm.RowPtr, Cols: tm.Cols, Vals: make([]float64, tm.NNZ())}
		for i := 0; i < n; i++ {
			lo, hi := tm.RowPtr[i], tm.RowPtr[i+1]
			var total float64
			for k := lo; k < hi; k++ {
				drift.Vals[k] = float64(src.next() % 4)
				total += drift.Vals[k]
			}
			for k := lo; k < hi && total > 0; k++ {
				drift.Vals[k] /= total
			}
		}
		same := true
		for i := 0; i < n; i++ {
			cols, old := tm.Row(i)
			_, vals := drift.Row(i)
			was, is := throttle.Row(cols, old, i, kappa[i]), throttle.Row(cols, vals, i, kappa[i])
			same = same && (was.Kind == throttle.SelfLoop) == (is.Kind == throttle.SelfLoop)
		}
		mPrev := op.m
		re, err := jacobiOperand(drift, kappa, alpha, workers, op)
		if err != nil {
			t.Fatal(err)
		}
		if (re.m == mPrev) != same {
			t.Fatalf("refresh in place = %v, want %v (same self-looped rows)", re.m == mPrev, same)
		}
		m, bias = oracleOperand(t, drift, kappa, alpha)
		checkOperand(t, "refreshed", re, m, bias)
	})
}

// TestJacobiOperandRefreshDiffersOnRewire: a T with new RowPtr and Cols
// gets a fresh pattern even when it is entry for entry the old one, and
// a κ flip that self-loops a row with out-links gets one over the very
// same T.
func TestJacobiOperandRefreshDiffersOnRewire(t *testing.T) {
	sg := buildSG(t, corpus(t))
	kappa := make([]float64, sg.NumSources())
	kappa[4] = 1
	op, err := jacobiOperand(sg.T, kappa, 0.85, 1, operand{})
	if err != nil {
		t.Fatal(err)
	}
	clone := &linalg.CSR{Rows: sg.T.Rows, ColsN: sg.T.ColsN, RowPtr: slices.Clone(sg.T.RowPtr), Cols: slices.Clone(sg.T.Cols), Vals: sg.T.Vals}
	re, err := jacobiOperand(clone, kappa, 0.85, 1, op)
	if err != nil {
		t.Fatal(err)
	}
	if re.m == op.m || re.pat == op.pat {
		t.Fatal("a T with new arrays reused the retained pattern")
	}
	kappa[5] = 1
	flip, err := jacobiOperand(clone, kappa, 0.85, 1, re)
	if err != nil {
		t.Fatal(err)
	}
	if flip.m == re.m || flip.m.NNZ() >= re.m.NNZ() {
		t.Fatalf("a κ flip kept the pattern (%d entries, before %d)", flip.m.NNZ(), re.m.NNZ())
	}
	m, bias := oracleOperand(t, clone, kappa, 0.85)
	checkOperand(t, "after the κ flip", flip, m, bias)
}

// driftLinks adds up to k links that raise consensus counts inside
// existing cells — a page starts linking into a source a sibling page
// already links into — and reports them to inc, as a count drift batch
// reaches source.Incremental.
func driftLinks(t *testing.T, pg *pagegraph.Graph, inc *source.Incremental, k int) {
	t.Helper()
	added := 0
	for q := 0; q < pg.NumPages() && added < k; q++ {
		out := pg.OutLinks(pagegraph.PageID(q))
		if len(out) == 0 {
			continue
		}
		tgt := out[0]
		for _, sib := range pg.PagesOf(pg.SourceOf(pagegraph.PageID(q))) {
			before := refreshTargets(pg, sib)
			if _, found := slices.BinarySearch(before, pg.SourceOf(tgt)); found {
				continue
			}
			pg.AddLink(sib, tgt)
			removed, add := refreshDiff(before, refreshTargets(pg, sib))
			inc.UpdatePage(pg.SourceOf(sib), removed, add)
			added++
			break
		}
	}
	if added == 0 {
		t.Fatal("no drift link found")
	}
}

// TestDriftRewritesRetainedOperand drives count drift through
// source.Incremental and PipelineRefresh as the stream pipeline does:
// each emitted T keeps the previous RowPtr and Cols, the retained Jacobi
// operand keeps its arrays and pattern, its values equal a fresh build bit
// for bit, and the scores equal a solve over a fresh operand from the
// same warm start. A rewire then builds a fresh pattern.
func TestDriftRewritesRetainedOperand(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	pg := refreshPageGraph(rng, 40, 400, 1500)
	inc, err := source.NewIncremental(pg, source.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := PipelineConfig{SpamSeeds: []int32{1, 2, 5}, TopK: 4}
	st := &RefreshState{}
	sg := inc.Emit()
	if _, _, err := PipelineRefresh(sg, cfg, st); err != nil {
		t.Fatal(err)
	}
	if st.op.pat == nil {
		t.Fatal("the throttled solve did not build a Jacobi operand")
	}
	for round := 0; round < 3; round++ {
		prevT, prevOp, prevScores := sg.T, st.op, st.Scores
		driftLinks(t, pg, inc, 5)
		sg = inc.Emit()
		if !sameArray(sg.T.RowPtr, prevT.RowPtr) || !sameArray(sg.T.Cols, prevT.Cols) || sg.T == prevT {
			t.Fatalf("round %d: the drift emit did not keep T's RowPtr and Cols under new values", round)
		}
		got, info, err := PipelineRefresh(sg, cfg, st)
		if err != nil {
			t.Fatal(err)
		}
		if !info.ProximityCarried || info.SolveSkipped {
			t.Fatalf("round %d: drift refresh %+v, want proximity carried and a solve", round, info)
		}
		if st.op.m != prevOp.m || st.op.pat != prevOp.pat || !sameArray(st.op.pat.rowPtr, sg.T.RowPtr) {
			t.Fatalf("round %d: the drift refresh rebuilt the operand", round)
		}
		fresh, err := jacobiOperand(sg.T, st.Kappa, 0.85, 1, operand{})
		if err != nil {
			t.Fatal(err)
		}
		checkOperand(t, "drift", st.op, fresh.m, fresh.bias)
		m, bias := oracleOperand(t, sg.T, st.Kappa, 0.85)
		checkOperand(t, "drift", st.op, m, bias)
		warm, err := Rank(sg, st.Kappa, Config{X0: prevScores})
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got.Scores, warm.Scores) {
			t.Fatalf("round %d: scores over the rewritten operand differ from a fresh one's", round)
		}
	}
	// A rewire: a link into a source the page's source never linked to.
	prevOp := st.op
	cols, _ := sg.Counts.Row(0)
	page := pg.PagesOf(0)[0]
	for q := 0; q < pg.NumPages(); q++ {
		if !slices.Contains(cols, int32(pg.SourceOf(pagegraph.PageID(q)))) {
			before := refreshTargets(pg, page)
			pg.AddLink(page, pagegraph.PageID(q))
			removed, added := refreshDiff(before, refreshTargets(pg, page))
			inc.UpdatePage(0, removed, added)
			break
		}
	}
	sg = inc.Emit()
	if _, _, err := PipelineRefresh(sg, cfg, st); err != nil {
		t.Fatal(err)
	}
	if st.op.m == prevOp.m || st.op.pat == prevOp.pat {
		t.Fatal("a rewire reused the retained pattern")
	}
	m, bias := oracleOperand(t, sg.T, st.Kappa, 0.85)
	checkOperand(t, "rewire", st.op, m, bias)
}

// BenchmarkJacobiOperand times SRSR's operand on UK2002 ×0.1 with the
// paper's binary κ: built the old way round (Apply, transpose, split),
// built fresh from T (a cold build or a rewire), and refreshed in place
// over new values on the same sparsity (a count drift).
func BenchmarkJacobiOperand(b *testing.B) {
	ds, err := gen.GeneratePreset(gen.UK2002, 0.1, 1)
	if err != nil {
		b.Fatal(err)
	}
	sg, err := source.Build(ds.Pages, source.Options{})
	if err != nil {
		b.Fatal(err)
	}
	res, err := Pipeline(sg, PipelineConfig{SpamSeeds: ds.SpamSources, TopK: throttle.DefaultTopK(sg.NumSources())})
	if err != nil {
		b.Fatal(err)
	}
	kappa := res.Kappa
	b.Run("apply+transpose+split", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tpp, _ := throttle.Apply(sg.T, kappa)
			s := rank.NewSplit(tpp.TransposeParallel(0), 0.85)
			s.Bias(linalg.NewUniformVector(sg.NumSources()))
		}
	})
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := jacobiOperand(sg.T, kappa, 0.85, 0, operand{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("refresh", func(b *testing.B) {
		op, _ := jacobiOperand(sg.T, kappa, 0.85, 0, operand{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if op, err = jacobiOperand(sg.T, kappa, 0.85, 0, op); err != nil {
				b.Fatal(err)
			}
		}
	})
}

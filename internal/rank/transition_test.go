package rank

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"sourcerank/internal/graph"
	"sourcerank/internal/linalg"
)

// TestTransitionTMatchesTranspose pins the bitwise contract: the direct
// build equals transition(g).TransposeParallel, so StationaryT over it
// reproduces PageRank's iteration exactly.
func TestTransitionTMatchesTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(40)
		b := graph.NewBuilder(n)
		for e := 0; e < rng.Intn(4*n); e++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := b.Build()
		m, err := transition(g)
		if err != nil {
			t.Fatalf("transition: %v", err)
		}
		want := m.TransposeParallel(1)
		got := TransitionT(g)
		if !reflect.DeepEqual(got.RowPtr, want.RowPtr) || !reflect.DeepEqual(got.Cols, want.Cols) {
			t.Fatalf("trial %d: structure differs", trial)
		}
		for k := range want.Vals {
			if got.Vals[k] != want.Vals[k] {
				t.Fatalf("trial %d: Vals[%d] = %v, want %v", trial, k, got.Vals[k], want.Vals[k])
			}
		}
	}
}

func randomTopology(rng *rand.Rand, n, edges int) *graph.Graph {
	b := graph.NewBuilder(n)
	for e := 0; e < edges; e++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return b.Build()
}

// TestPageRankMatchesForwardPath pins PageRank and TrustRank, which
// build Mᵀ directly, bit for bit against the path they replaced: the
// forward matrix from sorted entries, transposed, then the same solve —
// StationaryT for PageRank, the split solve for TrustRank — at every
// worker count, cold and warm-started, and for PageRank at both
// precisions. TrustRank refuses float32.
func TestPageRankMatchesForwardPath(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 12; trial++ {
		n := 2 + rng.Intn(300)
		g := randomTopology(rng, n, rng.Intn(6*n))
		m, err := transition(g)
		if err != nil {
			t.Fatal(err)
		}
		trusted := []int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
		tele, err := TrustTeleport(n, trusted)
		if err != nil {
			t.Fatal(err)
		}
		warm := linalg.NewVector(n)
		for i := range warm {
			warm[i] = rng.Float64()
		}
		warm.Normalize1()
		for _, prec := range []linalg.Precision{linalg.Float64, linalg.Float32} {
			for _, workers := range []int{1, 2, 4} {
				for _, x0 := range []linalg.Vector{nil, warm} {
					opt := Options{Workers: workers, Precision: prec, X0: x0}
					check := func(name string, got *Result, err error, teleport linalg.Vector) {
						t.Helper()
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						ref := opt
						ref.Teleport = teleport
						mt := m.TransposeParallel(ref.Workers)
						want, err := StationaryT(mt, ref)
						if teleport != nil {
							err = SolveSplit(mt, []Options{ref}, func(_ int, r *Result) { want = r })
						}
						if err != nil {
							t.Fatalf("%s reference: %v", name, err)
						}
						if got.Stats != want.Stats {
							t.Fatalf("trial %d %s %v w=%d warm=%v: stats %+v, want %+v", trial, name, prec, workers, x0 != nil, got.Stats, want.Stats)
						}
						for i := range want.Scores {
							if got.Scores[i] != want.Scores[i] {
								t.Fatalf("trial %d %s %v w=%d warm=%v: score[%d] = %v, want %v", trial, name, prec, workers, x0 != nil, i, got.Scores[i], want.Scores[i])
							}
						}
					}
					pr, err := PageRank(g, opt)
					check("PageRank", pr, err, nil)
					tr, err := TrustRank(g, trusted, opt)
					if prec == linalg.Float32 {
						if err == nil {
							t.Fatal("TrustRank accepted float32")
						}
						continue
					}
					check("TrustRank", tr, err, tele)
				}
			}
		}
	}
}

// BenchmarkPageRank splits a cold PageRank call into its two costs: the
// operand (Mᵀ by counting sort) and the power iterations over it. A sweep
// over α or teleport vectors pays the first once.
func BenchmarkPageRank(b *testing.B) {
	g := randomTopology(rand.New(rand.NewSource(1)), 200_000, 1_200_000)
	var operand, solve time.Duration
	iters := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		mt := TransitionT(g)
		t1 := time.Now()
		res, err := StationaryT(mt, Options{})
		if err != nil {
			b.Fatal(err)
		}
		operand += t1.Sub(t0)
		solve += time.Since(t1)
		iters = res.Stats.Iterations
	}
	b.ReportMetric(operand.Seconds()*1e3/float64(b.N), "operand-ms/op")
	b.ReportMetric(solve.Seconds()*1e3/float64(b.N), "solve-ms/op")
	b.ReportMetric(float64(iters), "iterations")
}

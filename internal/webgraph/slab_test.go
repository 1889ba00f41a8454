package webgraph

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sourcerank/internal/faultfs"
	"sourcerank/internal/graph"
	"sourcerank/internal/linalg"
	"sourcerank/internal/rank"
)

// forwardTransition mirrors rank's unexported transition builder: the
// uniform out-degree matrix assembled through NewCSR.
func forwardTransition(t *testing.T, g *graph.Graph) *linalg.CSR {
	t.Helper()
	entries := []linalg.Entry{}
	for u := 0; u < g.NumNodes(); u++ {
		succ := g.Successors(int32(u))
		if len(succ) == 0 {
			continue
		}
		w := 1 / float64(len(succ))
		for _, v := range succ {
			entries = append(entries, linalg.Entry{Row: u, Col: int(v), Val: w})
		}
	}
	m, err := linalg.NewCSR(g.NumNodes(), g.NumNodes(), entries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func csrBitsEqual(t *testing.T, name string, want, got *linalg.CSR) {
	t.Helper()
	if want.Rows != got.Rows || want.ColsN != got.ColsN || want.NNZ() != got.NNZ() {
		t.Fatalf("%s: shape mismatch (%d,%d,%d) vs (%d,%d,%d)", name,
			want.Rows, want.ColsN, want.NNZ(), got.Rows, got.ColsN, got.NNZ())
	}
	for i := range want.RowPtr {
		if want.RowPtr[i] != got.RowPtr[i] {
			t.Fatalf("%s: RowPtr[%d] = %d, want %d", name, i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for k := range want.Vals {
		if want.Cols[k] != got.Cols[k] {
			t.Fatalf("%s: Cols[%d] = %d, want %d", name, k, got.Cols[k], want.Cols[k])
		}
		if math.Float64bits(want.Vals[k]) != math.Float64bits(got.Vals[k]) {
			t.Fatalf("%s: Vals[%d] bits differ", name, k)
		}
	}
}

func buildSlabsFor(t *testing.T, g *graph.Graph, opt SlabOptions) SlabPaths {
	t.Helper()
	c, err := Compress(g)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := BuildTransitionSlabs(nil, t.TempDir(), c, opt)
	if err != nil {
		t.Fatalf("BuildTransitionSlabs: %v", err)
	}
	return paths
}

func TestBuildTransitionSlabsBitwise(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"random":   randomGraph(rand.New(rand.NewSource(7)), 300, 2500),
		"dangling": graph.FromAdjacency([][]int32{{1, 2}, {}, {0}, {}}),
		"empty":    graph.FromAdjacency(nil),
		"edgeless": graph.FromAdjacency([][]int32{{}, {}, {}}),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			paths := buildSlabsFor(t, g, SlabOptions{})
			wantP := forwardTransition(t, g)
			wantPT := rank.TransitionT(g)

			sp, err := linalg.OpenSlabCSR(paths.P, linalg.SlabOpenOptions{})
			if err != nil {
				t.Fatalf("open P: %v", err)
			}
			defer sp.Close()
			csrBitsEqual(t, "P", wantP, sp.Matrix())

			spt, err := linalg.OpenSlabCSR(paths.PT, linalg.SlabOpenOptions{})
			if err != nil {
				t.Fatalf("open PT: %v", err)
			}
			defer spt.Close()
			csrBitsEqual(t, "PT", wantPT, spt.Matrix())
			// And against the actual transpose of the forward matrix.
			csrBitsEqual(t, "PT-vs-transpose", wantP.Transpose(), spt.Matrix())
		})
	}
}

// TestBuildTransitionSlabsMultiBucket forces the transpose counting sort
// through many buffer-bounded passes and checks the result is unchanged.
func TestBuildTransitionSlabsMultiBucket(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(11)), 200, 3000)
	want := rank.TransitionT(g)
	for _, bufBytes := range []int64{1, 64, 4096} {
		SetSlabBufferBytes(t, bufBytes)
		paths := buildSlabsFor(t, g, SlabOptions{})
		spt, err := linalg.OpenSlabCSR(paths.PT, linalg.SlabOpenOptions{})
		if err != nil {
			t.Fatalf("open PT (buf=%d): %v", bufBytes, err)
		}
		csrBitsEqual(t, "PT", want, spt.Matrix())
		spt.Close()
	}
}

// TestBuildTransitionSlabsFloat32 pins the float32 slabs to the in-RAM
// float32 mirror: same narrowing, same bits.
func TestBuildTransitionSlabsFloat32(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(13)), 150, 1800)
	SetSlabBufferBytes(t, 512)
	paths := buildSlabsFor(t, g, SlabOptions{Precision: linalg.Float32})
	want := linalg.NewCSR32(rank.TransitionT(g))
	spt, err := linalg.OpenSlabCSR32(paths.PT, linalg.SlabOpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer spt.Close()
	got := spt.Matrix()
	if got.Rows != want.Rows || got.NNZ() != want.NNZ() {
		t.Fatalf("shape mismatch")
	}
	for k := range want.Vals {
		if got.Cols[k] != want.Cols[k] {
			t.Fatalf("Cols[%d] differs", k)
		}
		if math.Float32bits(got.Vals[k]) != math.Float32bits(want.Vals[k]) {
			t.Fatalf("Vals[%d] bits differ from NewCSR32", k)
		}
	}
}

// TestSlabSolveMatchesRankPageRank closes the loop: a power solve over
// the slab-built transpose must reproduce rank.PageRank bit for bit.
func TestSlabSolveMatchesRankPageRank(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(17)), 250, 2000)
	res, err := rank.PageRank(g, rank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	paths := buildSlabsFor(t, g, SlabOptions{})
	spt, err := linalg.OpenSlabCSR(paths.PT, linalg.SlabOpenOptions{MaxResident: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer spt.Close()
	n := g.NumNodes()
	got, st, err := linalg.PowerMethodT(spt.Matrix(), 0.85, linalg.NewUniformVector(n), nil, linalg.SolverOptions{})
	if err != nil || !st.Converged {
		t.Fatalf("slab solve: %v %+v", err, st)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(res.Scores[i]) {
			t.Fatalf("score %d diverges from rank.PageRank", i)
		}
	}
}

// slabFileBytes returns the committed bytes of m written cold through
// linalg.WriteSlabCSR: the reference every built slab must equal.
func slabFileBytes(t *testing.T, m *linalg.CSR, prec linalg.Precision) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ref.slab")
	if err := linalg.WriteSlabCSR(nil, path, m, prec); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// starGraph points every node at node 0, so row 0 of Pᵀ holds every
// entry of the matrix: one bucket row as large as the whole transpose.
func starGraph(n int) *graph.Graph {
	adj := make([][]int32, n)
	for u := range adj {
		adj[u] = []int32{0}
	}
	return graph.FromAdjacency(adj)
}

// TestBuildTransitionSlabsBytes pins the committed files, not just their
// decoded arrays: over ordinary and degenerate sources, with the
// transpose in one bucket, in one bucket per row, and at float32, both
// slabs equal a cold WriteSlabCSR of rank's in-RAM matrices byte for byte.
func TestBuildTransitionSlabsBytes(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"random":      randomGraph(rand.New(rand.NewSource(19)), 300, 2500),
		"no nodes":    graph.FromAdjacency(nil),
		"one node":    graph.FromAdjacency([][]int32{{}}),
		"self loop":   graph.FromAdjacency([][]int32{{0}}),
		"all dangle":  graph.FromAdjacency([][]int32{{}, {}, {}, {}}),
		"star inward": starGraph(50),
	}
	opts := map[string]struct {
		opt SlabOptions
		buf int64 // bucket buffer bytes; 0 keeps the default
	}{
		"one bucket":          {SlabOptions{}, 0},
		"bucket per row":      {SlabOptions{}, 1},
		"float32":             {SlabOptions{Precision: linalg.Float32}, 0},
		"float32 many bucket": {SlabOptions{Precision: linalg.Float32}, 40},
	}
	for gname, g := range graphs {
		wantP, wantPT := forwardTransition(t, g), rank.TransitionT(g)
		for oname, o := range opts {
			t.Run(gname+"/"+oname, func(t *testing.T) {
				if o.buf > 0 {
					SetSlabBufferBytes(t, o.buf)
				}
				opt := o.opt
				paths := buildSlabsFor(t, g, opt)
				for _, f := range []struct {
					name, path string
					want       *linalg.CSR
				}{{"P", paths.P, wantP}, {"PT", paths.PT, wantPT}} {
					got, err := os.ReadFile(f.path)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, slabFileBytes(t, f.want, opt.Precision)) {
						t.Errorf("%s slab differs from WriteSlabCSR of the in-RAM matrix", f.name)
					}
				}
			})
		}
	}
}

// TestBuildTransitionSlabsFaults drives the side-by-side commits through
// a failing disk. P and Pᵀ are independent durable commits, so after any
// failure each path holds either the previous build or the new one,
// whole — never a torn file — and the build reports the failure.
func TestBuildTransitionSlabsFaults(t *testing.T) {
	compress := func(seed int64) *Compressed {
		c, err := Compress(randomGraph(rand.New(rand.NewSource(seed)), 300, 2500))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	oldC, newC := compress(23), compress(29)
	dir := t.TempDir()
	ffs := faultfs.New(nil)
	paths, err := BuildTransitionSlabs(ffs, dir, oldC, SlabOptions{})
	if err != nil {
		t.Fatal(err)
	}
	read := func(path string) []byte {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	oldP, oldPT := read(paths.P), read(paths.PT)
	written := ffs.BytesWritten()
	newPaths, err := BuildTransitionSlabs(ffs, t.TempDir(), newC, SlabOptions{})
	if err != nil {
		t.Fatal(err)
	}
	total := ffs.BytesWritten() - written // what one build of newC writes
	newP, newPT := read(newPaths.P), read(newPaths.PT)

	// wholeOrPrevious checks both committed paths and restores the old build.
	wholeOrPrevious := func(when string) {
		t.Helper()
		if got := read(paths.P); !bytes.Equal(got, oldP) && !bytes.Equal(got, newP) {
			t.Fatalf("%s: transition.slab is neither the previous nor the new build", when)
		}
		if got := read(paths.PT); !bytes.Equal(got, oldPT) && !bytes.Equal(got, newPT) {
			t.Fatalf("%s: transition_t.slab is neither the previous nor the new build", when)
		}
		if _, err := BuildTransitionSlabs(nil, dir, oldC, SlabOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	noTemps := func(when string) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".tmp") {
				t.Fatalf("%s: %s left behind", when, e.Name())
			}
		}
	}

	// A crash at any byte offset, landing in whichever file is mid-write.
	// (A crashed "process" cannot clean up, so a .tmp may survive it, as
	// in durable's own crash tests; the clean failures below must not.)
	for _, budget := range []int64{0, 1, 87, 4096, total / 4, total / 2, total - 17} {
		ffs.SetWriteBudget(budget)
		_, err := BuildTransitionSlabs(ffs, dir, newC, SlabOptions{})
		if !errors.Is(err, faultfs.ErrCrash) {
			t.Fatalf("budget %d: want ErrCrash, got %v", budget, err)
		}
		ffs.Heal()
		wholeOrPrevious(fmt.Sprintf("crash after %d bytes", budget))
		for _, p := range []string{paths.P, paths.PT} {
			_ = os.Remove(p + ".tmp")
		}
	}

	// One fsync fails: that file's commit aborts cleanly, the other lands.
	ffs.FailNextSyncs(1)
	if _, err := BuildTransitionSlabs(ffs, dir, newC, SlabOptions{}); !errors.Is(err, faultfs.ErrSync) {
		t.Fatalf("one failed fsync: want ErrSync, got %v", err)
	}
	noTemps("one failed fsync")
	wholeOrPrevious("one failed fsync")

	// Every fsync fails (file and directory, both slabs): nothing is
	// replaced, and P's error is the one reported.
	ffs.FailNextSyncs(4)
	_, err = BuildTransitionSlabs(ffs, dir, newC, SlabOptions{})
	if !errors.Is(err, faultfs.ErrSync) || !strings.Contains(err.Error(), "transition slab") {
		t.Fatalf("all fsyncs failed: want P's ErrSync, got %v", err)
	}
	noTemps("all fsyncs failed")
	if !bytes.Equal(read(paths.P), oldP) || !bytes.Equal(read(paths.PT), oldPT) {
		t.Fatal("all fsyncs failed: a slab was replaced")
	}
}

// BenchmarkBuildTransitionSlabs times a whole build of a generated
// 50 k-node graph. Its B/op is the figure CI gates: a build allocates
// the three O(nodes) index arrays and one transpose bucket — reported as
// model-B/op — plus a fixed handful of writer buffers, and nothing per
// row. (The per-row staging buffer this replaced cost rows × 2 × 32 KiB
// = 3.3 GB/op here.)
func BenchmarkBuildTransitionSlabs(b *testing.B) {
	const nodes = 50_000
	c, err := Compress(randomGraph(rand.New(rand.NewSource(31)), nodes, 8*nodes))
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildTransitionSlabs(nil, dir, c, SlabOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(3*8*nodes+4*c.NumEdges()), "model-B/op")
	b.ReportMetric(float64(c.NumEdges())*float64(b.N)/1e6/b.Elapsed().Seconds(), "Medges/s")
}

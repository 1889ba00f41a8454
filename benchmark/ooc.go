package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// outofcore_rank: page-level PageRank on the shared corpus, two
// sections over the same operand. Section A is the out-of-core chain:
// streamed corpus → compressed graph → float64 transition slabs → solves
// of the mapped Pᵀ under a residency cap of a quarter of the slab bytes.
// Section B decodes the graph into the heap once and solves it with
// rank.PageRank at float64 and at float32. It is the only workload where
// the slab build and the bandwidth-bound fused kernels do most of the
// work; heap against slab and float64 against float32 are the pairs a
// later merge of the twin code paths must not trade against each other.

const (
	oocMinSolves = 3
	// oocSlabShare is the share of the time left after the slab build
	// that section A's solves may use before section B starts.
	oocSlabShare = 0.4
)

// fusedUniformModelBytes is the compulsory traffic of one fused
// power-uniform iteration (DESIGN §13): the matrix stream — row
// pointers, column indices, values — plus six dense vector passes.
// Computed from array sizes, not measured; cache misses are not in it.
func fusedUniformModelBytes(rows int, nnz int64, valWidth, vecWidth int64) float64 {
	return float64(8*int64(rows) + 4*nnz + valWidth*nnz + 6*vecWidth*int64(rows))
}

// solveRun is one solve with its iteration count and score hash.
type solveRun struct {
	open, wall time.Duration
	iters      int
	scores     vector
}

func slabSolve(o *op, path string, maxResident int64, workers int, float32Vals bool) (res solveRun, err error) {
	var s *slabOperand
	res.open = o.call("linalg.slab_open", func() { s, err = openSlab(path, maxResident, float32Vals) })
	if err != nil {
		o.finish()
		return res, err
	}
	var st iterStats
	o.call("linalg.slab_solve", func() { res.scores, st, err = s.solve(workers) })
	cerr := s.close()
	res.wall = o.finish()
	res.iters = st.Iterations
	if err == nil {
		err = cerr
	}
	return res, err
}

func heapSolve(o *op, g *topology, workers int, float32Vals bool) (res solveRun, err error) {
	var st iterStats
	o.call("rank.pagerank", func() { res.scores, st, err = pageRank(g, workers, float32Vals) })
	res.wall = o.finish()
	res.iters = st.Iterations
	return res, err
}

func runOutOfCoreRank(r *run) error {
	cfg := r.cfg
	spillDir := filepath.Join(cfg.Dir, "spill")
	slabDir := filepath.Join(cfg.Dir, "slabs")
	for _, d := range []string{spillDir, slabDir, filepath.Join(slabDir, "f32")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	var corpus *streamCorpus
	err := r.setup(func() error {
		if corpus != nil {
			if err := removeCorpus(corpus); err != nil {
				return err
			}
		}
		var err error
		corpus, err = generateStreamCorpus(cfg.Scale, cfg.Seed, spillDir, cfg.Workers)
		return err
	})
	if err != nil {
		return err
	}
	r.corpus(corpus.NumPages, corpus.NumLinks, corpus.NumSources)
	runs := spillRuns(corpus)

	r.startTimed()
	start := time.Now()

	// Section A: build. It runs once, so its kernel is the mean of five
	// runs before and five after.
	kernelBefore := r.cal.both(5)
	build := r.tr.beginOp(0, "ooc_build")
	var comp *compressed
	compressTime := build.call("webgraph.compress", func() { comp, err = compressFrom(corpus) })
	if err != nil {
		return fmt.Errorf("CompressFrom: %w", err)
	}
	var paths slabPaths
	slabBuildTime := build.call("webgraph.slab_build", func() { paths, err = buildTransitionSlabs(slabDir, comp, false) })
	if err != nil {
		return fmt.Errorf("BuildTransitionSlabs: %w", err)
	}
	buildTime := build.finish()
	buildKernel := (kernelBefore + r.cal.both(5)) / 2
	r.rep.Attempted++
	if err := removeCorpus(corpus); err != nil {
		return err
	}
	slabBytes, err := fileSizes(paths.P, paths.PT)
	if err != nil {
		return err
	}
	maxResident := slabBytes / 4

	// Section A: solves under the cap.
	slabUntil := start.Add(buildTime + time.Duration(oocSlabShare*float64(cfg.budget()-buildTime)))
	var slabRuns []solveRun
	var slabRel, f64Rel, f32Rel relSamples
	for i := 0; i < oocMinSolves || time.Now().Before(slabUntil); i++ {
		r.rep.Attempted++
		kernel := r.cal.both(3)
		res, err := slabSolve(r.tr.beginOp(i, "ooc_solve"), paths.PT, maxResident, cfg.Workers, false)
		if err != nil {
			r.fail("slab solve %d: %v", i, err)
			continue
		}
		slabRuns = append(slabRuns, res)
		slabRel.add(res.wall, kernel)
	}
	peak, _ := r.endTimed() // peak RSS covers streamed generation's residue and section A only

	// Section B: the same operand in the heap.
	dec := r.tr.beginOp(0, "decode")
	var g *topology
	decodeTime := dec.call("webgraph.decode", func() { g, err = decompress(comp, cfg.Workers) })
	dec.finish()
	if err != nil {
		return fmt.Errorf("DecompressParallel: %w", err)
	}
	deadline := start.Add(cfg.budget())
	var f64Runs, f32Runs []solveRun
	for i := 0; i < oocMinSolves || time.Now().Before(deadline); i++ {
		for _, f32 := range []bool{false, true} {
			r.rep.Attempted++
			class := "heap_pagerank"
			if f32 {
				class = "heap_pagerank_f32"
			}
			kernel := r.cal.both(3)
			res, err := heapSolve(r.tr.beginOp(i, class), g, cfg.Workers, f32)
			if err != nil {
				r.fail("%s %d: %v", class, i, err)
				continue
			}
			if f32 {
				f32Runs = append(f32Runs, res)
				f32Rel.add(res.wall, kernel)
			} else {
				f64Runs = append(f64Runs, res)
				f64Rel.add(res.wall, kernel)
			}
		}
	}
	_, used := r.endTimed()
	if len(slabRuns) == 0 || len(f64Runs) == 0 || len(f32Runs) == 0 {
		return fmt.Errorf("a solve section has no successful run")
	}

	r.endToEnd(peak, [4]metric{
		{"", float64(buildTime) / float64(buildKernel), "x", 1},
		slabRel.metric(), f64Rel.metric(), f32Rel.metric(),
	})
	r.named("ooc_build_s", buildTime.Seconds(), "s", 1)
	r.named("ooc_solve_s", median(slabRel.raw.in(time.Second)), "s", len(slabRel.raw))
	r.named("heap_pagerank_s", median(f64Rel.raw.in(time.Second)), "s", len(f64Rel.raw))
	r.named("heap_pagerank_f32_s", median(f32Rel.raw.in(time.Second)), "s", len(f32Rel.raw))

	// ---- verification pass (untimed) ----
	want := scoreHash(f64Runs[0].scores)
	same := true
	for _, x := range slabRuns {
		same = same && scoreHash(x.scores) == want
	}
	for _, x := range f64Runs {
		same = same && scoreHash(x.scores) == want
	}
	r.check("slab_equals_heap", same, "%d slab and %d heap float64 solves against hash %016x", len(slabRuns), len(f64Runs), want)
	overlap := topOverlap(f64Runs[0].scores, f32Runs[0].scores, 100)
	r.check("f32_top100_overlap", overlap >= 0.99, "float32 top-100 shares %.2f of the float64 top-100", overlap)

	r.verified()
	if cfg.Traced {
		rows, nnz, err := slabShape(paths.PT)
		if err != nil {
			return err
		}
		oocLayers(r, oocState{
			comp: comp, g: g, paths: paths, slabDir: slabDir, maxResident: maxResident, rows: rows, nnz: nnz,
			slabRuns: slabRuns, f64Runs: f64Runs, f32Runs: f32Runs,
		})
		r.layer("gen.stream_generate_s", median(r.setups.raw.in(time.Second)), "s", len(r.setups.raw))
		r.layer("gen.spill_runs", float64(runs), "count", 1)
		r.layer("webgraph.compress_s", compressTime.Seconds(), "s", 1)
		r.layer("webgraph.bits_per_edge", bitsPerEdge(comp), "bits", 1)
		r.layer("webgraph.slab_build_s", slabBuildTime.Seconds(), "s", 1)
		r.layer("webgraph.slab_build_medges_per_s", float64(numEdges(comp))/1e6/slabBuildTime.Seconds(), "Medges/s", 1)
		r.layer("webgraph.slab_bytes", float64(slabBytes), "bytes", 1)
		r.layer("webgraph.decode_s", decodeTime.Seconds(), "s", 1)
		r.layer("quality.f32_top100_overlap", overlap, "ratio", 1)
	}
	r.finish(used)
	return nil
}

// oocState is what the traced run's probes need from the timed run.
type oocState struct {
	comp                       *compressed
	g                          *topology
	paths                      slabPaths
	slabDir                    string
	maxResident                int64
	rows                       int
	nnz                        int64
	slabRuns, f64Runs, f32Runs []solveRun
}

// oocLayers reports the linalg metrics and runs the layer probes:
// single-thread solves, the float32 slab, the transpose build and the
// roofline.
func oocLayers(r *run, s oocState) {
	w := r.cfg.Workers
	perIter := func(rs []solveRun) (secPerIter float64, iters int) {
		var xs []float64
		for _, x := range rs {
			xs = append(xs, x.wall.Seconds()/float64(max(x.iters, 1)))
		}
		return median(xs), rs[0].iters
	}
	var opens samples
	for _, x := range s.slabRuns {
		opens.add(x.open)
	}
	r.layer("linalg.slab_open_s", median(opens.in(time.Second)), "s", len(opens))
	slabIter, slabIters := perIter(s.slabRuns)
	f64Iter, f64Iters := perIter(s.f64Runs)
	f32Iter, f32Iters := perIter(s.f32Runs)
	r.layer("linalg.slab_solve_iters", float64(slabIters), "count", 1)
	r.layer("linalg.heap_iters_f64", float64(f64Iters), "count", 1)
	r.layer("linalg.heap_iters_f32", float64(f32Iters), "count", 1)
	r.layer("linalg.s_per_iter_slab", slabIter, "s", len(s.slabRuns))
	r.layer("linalg.s_per_iter_heap_f64", f64Iter, "s", len(s.f64Runs))
	r.layer("linalg.s_per_iter_heap_f32", f32Iter, "s", len(s.f32Runs))
	// GB/s from the computed traffic model; the heap figures charge the
	// whole rank.PageRank call (operand build included) to the iterations.
	bytes64 := fusedUniformModelBytes(s.rows, s.nnz, 8, 8)
	bytes32 := fusedUniformModelBytes(s.rows, s.nnz, 4, 4)
	slabGBps, f64GBps, f32GBps := bytes64/slabIter/1e9, bytes64/f64Iter/1e9, bytes32/f32Iter/1e9
	r.layer("linalg.slab_gbps", slabGBps, "GB/s", 1)
	r.layer("linalg.heap_gbps_f64", f64GBps, "GB/s", 1)
	r.layer("linalg.heap_gbps_f32", f32GBps, "GB/s", 1)

	// Single-thread baselines and parallel efficiency.
	slabW1, err := slabSolve(untracedOp("probe"), s.paths.PT, s.maxResident, 1, false)
	if err != nil {
		r.fail("probe slab solve Workers=1: %v", err)
		return
	}
	t0 := time.Now()
	tt := transitionT(s.g)
	r.layer("rank.transition_t_s", time.Since(t0).Seconds(), "s", 1)
	t0 = time.Now()
	if _, _, err := solveTransposed(tt, 1); err != nil {
		r.fail("probe heap solve Workers=1: %v", err)
		return
	}
	heapW1 := time.Since(t0)
	t0 = time.Now()
	if _, _, err := solveTransposed(tt, w); err != nil {
		r.fail("probe heap solve: %v", err)
		return
	}
	heapWn := time.Since(t0)
	slabWn := median(wallOf(s.slabRuns).in(time.Second))
	r.layer("linalg.slab_solve_w1_s", slabW1.wall.Seconds(), "s", 1)
	r.layer("linalg.heap_solve_w1_s", heapW1.Seconds(), "s", 1)
	r.layer("linalg.slab_parallel_eff", slabW1.wall.Seconds()/slabWn/float64(w), "ratio", 1)
	r.layer("linalg.heap_parallel_eff", heapW1.Seconds()/heapWn.Seconds()/float64(w), "ratio", 1)

	// The float32 slab.
	t0 = time.Now()
	paths32, err := buildTransitionSlabs(filepath.Join(s.slabDir, "f32"), s.comp, true)
	if err != nil {
		r.fail("probe float32 slab build: %v", err)
		return
	}
	r.layer("webgraph.slab_build_f32_s", time.Since(t0).Seconds(), "s", 1)
	var f32Slab []solveRun
	for i := 0; i < oocMinSolves; i++ {
		res, err := slabSolve(untracedOp("probe"), paths32.PT, s.maxResident, w, true)
		if err != nil {
			r.fail("probe float32 slab solve: %v", err)
			return
		}
		f32Slab = append(f32Slab, res)
	}
	f32SlabIter, _ := perIter(f32Slab)
	r.layer("linalg.slab_solve_f32_s", median(wallOf(f32Slab).in(time.Second)), "s", len(f32Slab))
	r.layer("linalg.slab_gbps_f32", bytes32/f32SlabIter/1e9, "GB/s", 1)

	// Roofline, in the same process and on the same cores.
	roof := measureRoofline(w, r.cfg.RooflineMaxBytes)
	fmt.Printf("roofline: last-level cache %d bytes, arrays %d bytes each, %d workers\n", roof.llcBytes, roof.arrayBytes, w)
	r.layer("linalg.triad_gbps", roof.triadGBps, "GB/s", roof.reps)
	r.layer("linalg.copy_gbps", roof.copyGBps, "GB/s", roof.reps)
	if roof.llcBytes > 0 {
		r.layer("linalg.slab_pct_of_triad", 100*slabGBps/roof.triadGBps, "%", 1)
		r.layer("linalg.heap_pct_of_triad_f64", 100*f64GBps/roof.triadGBps, "%", 1)
		r.layer("linalg.heap_pct_of_triad_f32", 100*f32GBps/roof.triadGBps, "%", 1)
	}
}

func wallOf(rs []solveRun) samples {
	var s samples
	for _, x := range rs {
		s.add(x.wall)
	}
	return s
}

// fileSizes is the total size of the named files.
func fileSizes(paths ...string) (int64, error) {
	var total int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// topOverlap is the share of a's top-k indices that are also in b's.
func topOverlap(a, b vector, k int) float64 {
	top := func(v vector) []int {
		idx := make([]int, len(v))
		for i := range idx {
			idx[i] = i
		}
		slices.SortFunc(idx, func(x, y int) int {
			switch {
			case v[x] > v[y]:
				return -1
			case v[x] < v[y]:
				return 1
			}
			return x - y
		})
		return idx[:min(k, len(idx))]
	}
	in := map[int]bool{}
	for _, i := range top(a) {
		in[i] = true
	}
	n := 0
	for _, i := range top(b) {
		if in[i] {
			n++
		}
	}
	return float64(n) / float64(max(len(in), 1))
}

// Bandwidth mode: measure the fused solver kernels' achieved memory
// throughput at float64 versus float32 operand storage, plus the
// end-to-end rank fidelity of the float32 scoring path.
//
// The solver inner loop is memory-bandwidth-bound, so the report prices
// each kernel step with a compulsory-traffic model — every array the
// step touches is charged one sequential sweep per pass that uses it —
// and divides by measured wall time to get achieved GB/s. The model
// deliberately ignores cache reuse of the gathered source vector; that
// locality shows up as achieved GB/s above the machine's DRAM bandwidth
// on operands that fit in cache. Per kernel step on an n-row matrix with nnz stored
// entries, value width valW and vector width vecW (8 for float64, 4 for
// float32):
//
//	matrix traffic  = 8n (row pointers) + 4·nnz (columns) + valW·nnz (values)
//	fused power     = matrix + 7·vecW·n   (mul: src+dst; lost-mass: dst;
//	                                       finish: dst read+write, teleport, src)
//	fused affine    = matrix + 4·vecW·n   (src, dst write, bias, src for residual)
//	multvec         = matrix + vecW·(rows+cols) (x sweep, dst write)
//
// Halving valW and vecW roughly halves bytes per step, so equal achieved
// GB/s means ~2x steps/second; the float32_speedup columns report the
// measured wall-time ratio at equal worker counts.
//
// The fidelity section reruns the κ-throttled SRSR solve at both
// precisions and reports Kendall τ, top-100 overlap, and spam-demotion
// AUC between them — the evidence that the cheaper iterate does not move
// the ranking. CI gates on fused-power float32 speedup ≥ 1.3x, τ ≥
// 0.999, and top-100 overlap ≥ 0.99 (see bandwidth-bench-smoke).
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"sourcerank/internal/core"
	"sourcerank/internal/gen"
	"sourcerank/internal/graph"
	"sourcerank/internal/linalg"
	"sourcerank/internal/rankeval"
	"sourcerank/internal/source"
	"sourcerank/internal/throttle"
)

// bandwidthSchema identifies the bandwidth-report layout.
const bandwidthSchema = "sourcerank/bench-bandwidth/v1"

type kernelRow struct {
	Kernel    string `json:"kernel"`  // fused_power | fused_affine | multvec
	Operand   string `json:"operand"` // page_transition | source_throttled
	Precision string `json:"precision"`
	Workers   int    `json:"workers"`
	Rows      int    `json:"rows"`
	NNZ       int    `json:"nnz"`
	NsPerOp   int64  `json:"ns_per_op"`
	// ModelBytes is the compulsory-traffic estimate for one step (see
	// the package comment's model); GBPerSec = ModelBytes / NsPerOp.
	ModelBytes int64   `json:"model_bytes"`
	GBPerSec   float64 `json:"gb_per_s"`
	// Float32Speedup is ns(float64)/ns(float32) for the same kernel,
	// operand, and worker count; set on float32 rows only.
	Float32Speedup float64 `json:"float32_speedup,omitempty"`
}

type solveRow struct {
	Precision  string  `json:"precision"`
	NsPerOp    int64   `json:"ns_per_op"`
	Iterations int     `json:"iterations"`
	Converged  bool    `json:"converged"`
	GBPerSec   float64 `json:"gb_per_s"`
}

type fidelityResult struct {
	KendallTau     float64 `json:"kendall_tau"`
	Top100Overlap  float64 `json:"top100_overlap"`
	SpamAUCFloat64 float64 `json:"spam_auc_float64"`
	SpamAUCFloat32 float64 `json:"spam_auc_float32"`
	KappaIdentical bool    `json:"kappa_identical"`
}

type bandwidthSummary struct {
	// FusedPowerSpeedup / FusedAffineSpeedup are the best equal-worker
	// float32-vs-float64 wall-time ratios on the large page-transition
	// operand; CI gates FusedPowerSpeedup >= 1.3.
	FusedPowerSpeedup  float64 `json:"fused_power_speedup"`
	FusedAffineSpeedup float64 `json:"fused_affine_speedup"`
	KendallTau         float64 `json:"kendall_tau"`
	Top100Overlap      float64 `json:"top100_overlap"`
}

type bandwidthReport struct {
	Schema     string           `json:"schema"`
	Go         string           `json:"go"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NumCPU     int              `json:"num_cpu"`
	Graph      graphInfo        `json:"graph"`
	Kernels    []kernelRow      `json:"kernels"`
	Solves     []solveRow       `json:"solves"`
	Fidelity   fidelityResult   `json:"fidelity"`
	Summary    bandwidthSummary `json:"summary"`
	// MaxRSSBytes is the process peak RSS at report time (0 where the
	// platform doesn't expose it).
	MaxRSSBytes int64 `json:"max_rss_bytes"`
}

func matrixModelBytes(rows, nnz int, valW int64) int64 {
	return 8*int64(rows) + 4*int64(nnz) + valW*int64(nnz)
}

func fusedPowerModelBytes(rows, nnz int, valW, vecW int64) int64 {
	return matrixModelBytes(rows, nnz, valW) + 7*vecW*int64(rows)
}

func fusedAffineModelBytes(rows, nnz int, valW, vecW int64) int64 {
	return matrixModelBytes(rows, nnz, valW) + 4*vecW*int64(rows)
}

func multvecModelBytes(rows, cols, nnz int, valW, vecW int64) int64 {
	return matrixModelBytes(rows, nnz, valW) + vecW*int64(rows+cols)
}

// pageTransition builds the uniform out-degree page transition matrix,
// the largest operand the pipeline ever iterates on (one entry per
// page-level link).
func pageTransition(g graph.Topology) *linalg.CSR {
	n := g.NumNodes()
	entries := make([]linalg.Entry, 0, 64)
	for u := 0; u < n; u++ {
		succ := g.Successors(int32(u))
		if len(succ) == 0 {
			continue
		}
		w := 1 / float64(len(succ))
		for _, v := range succ {
			entries = append(entries, linalg.Entry{Row: u, Col: int(v), Val: w})
		}
	}
	m, err := linalg.NewCSR(n, n, entries)
	if err != nil {
		fatal(err)
	}
	return m
}

func benchNs(fn func()) int64 {
	return testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fn()
		}
	}).NsPerOp()
}

// benchOperandKernels measures the fused power/affine step at both
// precisions over one operand, returning the rows plus the best
// equal-worker float32 speedups for the power and affine kernels.
func benchOperandKernels(operand string, tt *linalg.CSR, tiers []int) ([]kernelRow, float64, float64) {
	tel := linalg.NewUniformVector(tt.Rows)
	bias := tel.Clone()
	bias.Scale(0.15)
	tt32, tel32, bias32 := linalg.NewCSR32(tt), linalg.ToVector32(tel), linalg.ToVector32(bias)
	var out []kernelRow
	var bestPower, bestAffine float64
	for _, w := range tiers {
		p64, a64 := benchFusedSteps(operand, "float64", tt, tel, bias, w)
		p32, a32 := benchFusedSteps(operand, "float32", tt32, tel32, bias32, w)
		if p32.NsPerOp > 0 {
			p32.Float32Speedup = float64(p64.NsPerOp) / float64(p32.NsPerOp)
			bestPower = max(bestPower, p32.Float32Speedup)
		}
		if a32.NsPerOp > 0 {
			a32.Float32Speedup = float64(a64.NsPerOp) / float64(a32.NsPerOp)
			bestAffine = max(bestAffine, a32.Float32Speedup)
		}
		out = append(out, p64, p32, a64, a32)
	}
	return out, bestPower, bestAffine
}

// benchFusedSteps times one fused power step and one fused affine step
// (each with its residual) over tt at value type F with w workers.
func benchFusedSteps[F linalg.Float](operand, precision string, tt *linalg.Matrix[F], tel, bias []F, w int) (power, affine kernelRow) {
	rows, nnz := tt.Rows, tt.NNZ()
	var zero F
	width := int64(unsafe.Sizeof(zero))
	row := func(kernel string, ns, modelBytes int64) kernelRow {
		return kernelRow{Kernel: kernel, Operand: operand, Precision: precision,
			Workers: w, Rows: rows, NNZ: nnz, NsPerOp: ns, ModelBytes: modelBytes, GBPerSec: gbPerSec(modelBytes, ns)}
	}
	src, dst := slices.Clone(tel), make([]F, rows)

	kp, err := linalg.NewFusedPower(tt, 0.85, tel, linalg.ResidualL2, w)
	if err != nil {
		fatal(err)
	}
	kp.Step(dst, src, true)
	ns := benchNs(func() { kp.Step(dst, src, true); src, dst = dst, src })
	kp.Close()
	power = row("fused_power", ns, fusedPowerModelBytes(rows, nnz, width, width))

	ka, err := linalg.NewFusedAffine(tt, 0.85, bias, linalg.ResidualL2, w)
	if err != nil {
		fatal(err)
	}
	ka.Step(dst, src, true)
	ns = benchNs(func() { ka.Step(dst, src, true); src, dst = dst, src })
	ka.Close()
	affine = row("fused_affine", ns, fusedAffineModelBytes(rows, nnz, width, width))
	return power, affine
}

func gbPerSec(modelBytes, nsPerOp int64) float64 {
	if nsPerOp <= 0 {
		return 0
	}
	return float64(modelBytes) / float64(nsPerOp) // bytes/ns == GB/s
}

func runBandwidth(preset string, scale float64, seed uint64, out string, workers int) {
	fmt.Fprintf(os.Stderr, "bench: generating %s at scale %g (seed %d)\n", preset, scale, seed)
	ds, err := gen.GeneratePreset(gen.Preset(preset), scale, seed)
	if err != nil {
		fatal(err)
	}
	pg := ds.Pages
	info := graphInfo{
		Preset:  preset,
		Scale:   scale,
		Seed:    seed,
		Pages:   pg.NumPages(),
		Links:   pg.NumLinks(),
		Sources: pg.NumSources(),
	}
	fmt.Fprintf(os.Stderr, "bench: %d pages, %d links, %d sources\n", info.Pages, info.Links, info.Sources)

	maxprocs := runtime.GOMAXPROCS(0)
	tiers := []int{1}
	if workers > 1 && workers != maxprocs {
		tiers = append(tiers, workers)
	}
	if maxprocs > 1 {
		tiers = append(tiers, maxprocs)
	}

	sg, err := source.Build(pg, source.Options{Workers: workers})
	if err != nil {
		fatal(err)
	}
	prox, _, err := throttle.SpamProximity(sg.Structure(), ds.SpamSources, throttle.ProximityOptions{Workers: workers})
	if err != nil {
		fatal(err)
	}
	topK := sg.NumSources() / 37 // ≈2.7%, the paper's WB2001 ratio
	kappa := throttle.TopK(prox, topK)
	tpp, err := throttle.Apply(sg.T, kappa)
	if err != nil {
		fatal(err)
	}

	rep := bandwidthReport{
		Schema:     bandwidthSchema,
		Go:         runtime.Version(),
		GOMAXPROCS: maxprocs,
		NumCPU:     runtime.NumCPU(),
		Graph:      info,
	}

	// Kernel sweep on the page-level transition transpose — the largest
	// operand in the repo, squarely bandwidth-bound — and on the
	// throttled source matrix the SRSR solve actually iterates.
	pt := pageTransition(pg.ToGraph()).TransposeParallel(workers)
	rows, bestPower, bestAffine := benchOperandKernels("page_transition", pt, tiers)
	rep.Kernels = append(rep.Kernels, rows...)
	fmt.Fprintf(os.Stderr, "bench: page_transition (%d rows, %d nnz): fused power float32 %.2fx, affine %.2fx\n",
		pt.Rows, pt.NNZ(), bestPower, bestAffine)

	srcRows, srcPower, srcAffine := benchOperandKernels("source_throttled", tpp.TransposeParallel(workers), tiers)
	rep.Kernels = append(rep.Kernels, srcRows...)
	fmt.Fprintf(os.Stderr, "bench: source_throttled: fused power float32 %.2fx, affine %.2fx\n", srcPower, srcAffine)

	// multvec, max workers only (the scatter kernel is not on the solve
	// hot path since fusion and exists at float64 only; reported for
	// completeness).
	x := linalg.NewUniformVector(sg.T.Rows)
	dst := linalg.NewVector(sg.T.ColsN)
	mns64 := benchNs(func() { linalg.MulTVecParallel(sg.T, x, dst, maxprocs) })
	mmb := multvecModelBytes(sg.T.Rows, sg.T.ColsN, sg.T.NNZ(), 8, 8)
	rep.Kernels = append(rep.Kernels, kernelRow{Kernel: "multvec", Operand: "source_counts", Precision: "float64",
		Workers: maxprocs, Rows: sg.T.Rows, NNZ: sg.T.NNZ(), NsPerOp: mns64, ModelBytes: mmb, GBPerSec: gbPerSec(mmb, mns64)})

	// End-to-end SRSR solve at both precisions on the throttled matrix,
	// and the rank-fidelity comparison between them.
	var res64, res32 *core.Result
	sns64 := benchNs(func() {
		res64, err = core.Rank(sg, kappa, core.Config{Workers: workers})
		if err != nil {
			fatal(err)
		}
	})
	sns32 := benchNs(func() {
		res32, err = core.Rank(sg, kappa, core.Config{Workers: workers, Precision: linalg.Float32})
		if err != nil {
			fatal(err)
		}
	})
	stepBytes64 := fusedPowerModelBytes(tpp.Rows, tpp.NNZ(), 8, 8)
	stepBytes32 := fusedPowerModelBytes(tpp.Rows, tpp.NNZ(), 4, 4)
	rep.Solves = []solveRow{
		{Precision: "float64", NsPerOp: sns64, Iterations: res64.Stats.Iterations, Converged: res64.Stats.Converged,
			GBPerSec: gbPerSec(stepBytes64*int64(res64.Stats.Iterations), sns64)},
		{Precision: "float32", NsPerOp: sns32, Iterations: res32.Stats.Iterations, Converged: res32.Stats.Converged,
			GBPerSec: gbPerSec(stepBytes32*int64(res32.Stats.Iterations), sns32)},
	}

	tau, err := rankeval.KendallTau(res64.Scores, res32.Scores)
	if err != nil {
		fatal(err)
	}
	overlap, err := rankeval.TopKOverlap(res64.Scores, res32.Scores, 100)
	if err != nil {
		fatal(err)
	}
	rep.Fidelity = fidelityResult{
		KendallTau:     tau,
		Top100Overlap:  overlap,
		SpamAUCFloat64: demotionAUC(res64.Scores, ds.SpamSources),
		SpamAUCFloat32: demotionAUC(res32.Scores, ds.SpamSources),
		KappaIdentical: true, // κ is assigned before the solve, from the shared float64 proximity
	}
	rep.Summary = bandwidthSummary{
		FusedPowerSpeedup:  bestPower,
		FusedAffineSpeedup: bestAffine,
		KendallTau:         tau,
		Top100Overlap:      overlap,
	}
	rep.MaxRSSBytes = peakRSS()

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "bench: solve float64 %dns/%d iters vs float32 %dns/%d iters; τ=%.6f top100=%.3f; report in %s\n",
		sns64, res64.Stats.Iterations, sns32, res32.Stats.Iterations, tau, overlap, out)
}

// demotionAUC is the spam-demotion AUC: the AUC of the negated scores
// against the spam labels, so 1.0 means every spam source ranks below
// every legitimate one.
func demotionAUC(scores linalg.Vector, spam []int32) float64 {
	neg := make(linalg.Vector, len(scores))
	for i, s := range scores {
		neg[i] = -s
	}
	auc, err := rankeval.AUC(neg, spam)
	if err != nil {
		fatal(err)
	}
	return auc
}

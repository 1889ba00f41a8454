// Package bench holds the paper-level benchmark harness: one benchmark
// per table and figure of the evaluation (regenerating the artifact each
// iteration) plus microbenchmarks for the computational kernels the
// system is built on (parallel SpMV, the power-method solve, source-graph
// construction, graph compression, and spam-proximity propagation).
//
// Run everything with:
//
//	go test -bench=. -benchmem
package bench

import (
	"io"
	"testing"

	"sourcerank/internal/core"
	"sourcerank/internal/experiments"
	"sourcerank/internal/gen"
	"sourcerank/internal/graph"
	"sourcerank/internal/linalg"
	"sourcerank/internal/rank"
	"sourcerank/internal/source"
	"sourcerank/internal/throttle"
	"sourcerank/internal/webgraph"
)

// benchConfig keeps the corpus-backed experiment benchmarks laptop-sized:
// ~1% of the paper's Table 1 scale.
func benchConfig() experiments.Config {
	return experiments.Config{Scale: 0.01, Seed: 1, Targets: 3}
}

func runExperiment(b *testing.B, id string, cfg experiments.Config) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := tab.Fprint(io.Discard); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(tab.Rows)), "rows")
	}
}

// BenchmarkTable1SourceSummary regenerates Table 1 (source-graph summary
// across the three dataset presets).
func BenchmarkTable1SourceSummary(b *testing.B) {
	runExperiment(b, "table1", benchConfig())
}

// BenchmarkFig2ThrottleGain regenerates Figure 2 (closed-form one-time
// gain factor by κ).
func BenchmarkFig2ThrottleGain(b *testing.B) {
	runExperiment(b, "fig2", benchConfig())
}

// BenchmarkFig3CollusionCost regenerates Figure 3 (extra colluding
// sources needed under κ').
func BenchmarkFig3CollusionCost(b *testing.B) {
	runExperiment(b, "fig3", benchConfig())
}

// BenchmarkFig4Scenarios regenerates Figure 4(a–c) (PageRank vs SRSR gain
// factors under the three attack scenarios).
func BenchmarkFig4Scenarios(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		for _, id := range []string{"fig4a", "fig4b", "fig4c"} {
			tab, err := experiments.Run(id, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := tab.Fprint(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig5SpamBuckets regenerates Figure 5 (20-bucket spam rank
// distribution, baseline vs throttled, on WB2001-sim).
func BenchmarkFig5SpamBuckets(b *testing.B) {
	runExperiment(b, "fig5", benchConfig())
}

// BenchmarkFig6IntraSource regenerates Figure 6 (intra-source
// manipulation cases A–D) on the UK2002-sim corpus.
func BenchmarkFig6IntraSource(b *testing.B) {
	cfg := benchConfig()
	cfg.Datasets = []gen.Preset{gen.UK2002}
	runExperiment(b, "fig6", cfg)
}

// BenchmarkFig7InterSource regenerates Figure 7 (inter-source
// manipulation cases A–D) on the UK2002-sim corpus.
func BenchmarkFig7InterSource(b *testing.B) {
	cfg := benchConfig()
	cfg.Datasets = []gen.Preset{gen.UK2002}
	runExperiment(b, "fig7", cfg)
}

// BenchmarkAblationConsensusVsUniform measures the §3.2 ablation:
// consensus vs uniform edge weighting under hijack pressure.
func BenchmarkAblationConsensusVsUniform(b *testing.B) {
	runExperiment(b, "ablation-consensus", benchConfig())
}

// BenchmarkAblationThrottle measures the κ-assignment-policy ablation
// (none vs binary top-k vs graded).
func BenchmarkAblationThrottle(b *testing.B) {
	runExperiment(b, "ablation-throttle", benchConfig())
}

// BenchmarkAblationSolver measures the power-vs-Jacobi solver ablation.
func BenchmarkAblationSolver(b *testing.B) {
	runExperiment(b, "ablation-solver", benchConfig())
}

// --- kernel microbenchmarks -------------------------------------------

// benchCorpus generates one UK2002-sim corpus for the kernel benches.
func benchCorpus(b *testing.B) *gen.Dataset {
	b.Helper()
	ds, err := gen.GeneratePreset(gen.UK2002, 0.01, 1)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// BenchmarkGenerateCorpus measures synthetic corpus generation.
func BenchmarkGenerateCorpus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds, err := gen.GeneratePreset(gen.UK2002, 0.01, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(ds.Pages.NumLinks()), "links")
	}
}

// BenchmarkSourceGraphBuild measures consensus source-graph derivation.
func BenchmarkSourceGraphBuild(b *testing.B) {
	ds := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sg, err := source.Build(ds.Pages, source.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(sg.NumEdges), "source-edges")
	}
}

// BenchmarkPageRank measures the page-level PageRank solve at the paper's
// convergence threshold.
func BenchmarkPageRank(b *testing.B) {
	ds := benchCorpus(b)
	g := ds.Pages.ToGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rank.PageRank(g, rank.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Stats.Iterations), "iters")
	}
}

// BenchmarkSRSRPipeline measures the full Spam-Resilient SourceRank
// pipeline: proximity, throttle assignment, and the stationary solve.
func BenchmarkSRSRPipeline(b *testing.B) {
	ds := benchCorpus(b)
	sg, err := source.Build(ds.Pages, source.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Pipeline(sg, core.PipelineConfig{
			SpamSeeds: ds.SpamSources,
			TopK:      sg.NumSources() / 40,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Stats.Iterations), "iters")
	}
}

// BenchmarkThrottleApply measures the T″ transform alone.
func BenchmarkThrottleApply(b *testing.B) {
	ds := benchCorpus(b)
	sg, err := source.Build(ds.Pages, source.Options{})
	if err != nil {
		b.Fatal(err)
	}
	kappa := make([]float64, sg.NumSources())
	for i := range kappa {
		if i%7 == 0 {
			kappa[i] = 1
		} else if i%3 == 0 {
			kappa[i] = 0.5
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := throttle.Apply(sg.T, kappa); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpamProximity measures the inverse-PageRank proximity walk.
func BenchmarkSpamProximity(b *testing.B) {
	ds := benchCorpus(b)
	sg, err := source.Build(ds.Pages, source.Options{})
	if err != nil {
		b.Fatal(err)
	}
	st := sg.Structure()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := throttle.SpamProximity(st, ds.SpamSources, throttle.ProximityOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// spmvFixture builds a transition matrix for the SpMV benches.
func spmvFixture(b *testing.B) (*linalg.CSR, linalg.Vector, linalg.Vector) {
	b.Helper()
	ds := benchCorpus(b)
	m := rank.TransitionT(ds.Pages.ToGraph())
	x := linalg.NewUniformVector(m.ColsN)
	dst := linalg.NewVector(m.Rows)
	return m, x, dst
}

// BenchmarkSpMVSerial measures the single-threaded gather kernel.
func BenchmarkSpMVSerial(b *testing.B) {
	m, x, dst := spmvFixture(b)
	b.SetBytes(int64(m.NNZ()) * 12) // 8B value + 4B column index per nonzero
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linalg.MulVec(m, x, dst)
	}
}

// BenchmarkSpMVParallel measures the row-partitioned parallel kernel,
// the ablation counterpart of BenchmarkSpMVSerial.
func BenchmarkSpMVParallel(b *testing.B) {
	m, x, dst := spmvFixture(b)
	b.SetBytes(int64(m.NNZ()) * 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linalg.MulVecParallel(m, x, dst, 0)
	}
}

// BenchmarkCompress measures WebGraph-style compression of the page
// graph; the reported metric is achieved bits per edge.
func BenchmarkCompress(b *testing.B) {
	ds := benchCorpus(b)
	g := ds.Pages.ToGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := webgraph.Compress(g)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(c.BitsPerEdge(), "bits/edge")
	}
}

// BenchmarkDecompress measures reconstruction of the CSR graph from the
// compressed form.
func BenchmarkDecompress(b *testing.B) {
	ds := benchCorpus(b)
	g := ds.Pages.ToGraph()
	c, err := webgraph.Compress(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decompress(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranspose measures graph transposition (used by the proximity
// walk and every solver).
func BenchmarkTranspose(b *testing.B) {
	ds := benchCorpus(b)
	g := ds.Pages.ToGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Transpose()
	}
}

// BenchmarkHITS measures the HITS baseline on the page graph.
func BenchmarkHITS(b *testing.B) {
	ds := benchCorpus(b)
	g := ds.Pages.ToGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rank.HITS(g, rank.Options{Tol: 1e-6}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphBuild measures CSR construction from an edge stream.
func BenchmarkGraphBuild(b *testing.B) {
	ds := benchCorpus(b)
	pg := ds.Pages
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gb := graph.NewBuilder(pg.NumPages())
		for u := 0; u < pg.NumPages(); u++ {
			for _, v := range pg.OutLinks(int32(u)) {
				gb.AddEdge(int32(u), v)
			}
		}
		_ = gb.Build()
	}
}

// BenchmarkSCC measures Tarjan SCC on the page graph.
func BenchmarkSCC(b *testing.B) {
	ds := benchCorpus(b)
	g := ds.Pages.ToGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := graph.SCC(g)
		b.ReportMetric(float64(r.NumComponents()), "components")
	}
}

// BenchmarkBowtie measures the bowtie decomposition.
func BenchmarkBowtie(b *testing.B) {
	ds := benchCorpus(b)
	g := ds.Pages.ToGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = graph.BowtieDecompose(g)
	}
}

// BenchmarkWarmStartRank measures incremental SRSR recomputation, the
// ablation counterpart of the cold solve inside BenchmarkSRSRPipeline.
func BenchmarkWarmStartRank(b *testing.B) {
	ds := benchCorpus(b)
	sg, err := source.Build(ds.Pages, source.Options{})
	if err != nil {
		b.Fatal(err)
	}
	kappa := make([]float64, sg.NumSources())
	cold, err := core.Rank(sg, kappa, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Rank(sg, kappa, core.Config{X0: cold.Scores})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Stats.Iterations), "iters")
	}
}

// BenchmarkExperimentROI / Detection / Stability regenerate the extended
// experiments.
func BenchmarkExperimentROI(b *testing.B) {
	runExperiment(b, "roi", benchConfig())
}

func BenchmarkExperimentDetection(b *testing.B) {
	runExperiment(b, "detection", benchConfig())
}

func BenchmarkExperimentStability(b *testing.B) {
	runExperiment(b, "stability", benchConfig())
}

func BenchmarkExperimentWarmStart(b *testing.B) {
	runExperiment(b, "ablation-warmstart", benchConfig())
}

func BenchmarkExperimentGranularity(b *testing.B) {
	runExperiment(b, "ablation-granularity", benchConfig())
}

// Command srank ranks a Web corpus with the paper's Spam-Resilient
// SourceRank, its two baselines (the un-throttled SourceRank and
// page-level PageRank), or the TrustRank the server serves beside them.
// Each -algo value and flag names its user in the root census_test.go.
//
// Usage:
//
//	srank -pages corpus.pages -spam corpus.spam -algo srsr -top 20
//	srank -preset UK2002 -scale 0.01 -algo pagerank -top 10
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"

	"sourcerank/internal/core"
	"sourcerank/internal/gen"
	"sourcerank/internal/linalg"
	"sourcerank/internal/pagegraph"
	"sourcerank/internal/rank"
	"sourcerank/internal/server"
	"sourcerank/internal/source"
	"sourcerank/internal/sysmem"
	"sourcerank/internal/throttle"
	"sourcerank/internal/webgraph"
)

func main() {
	var (
		pagesPath = flag.String("pages", "", "binary corpus produced by graphgen (overrides -preset)")
		spamPath  = flag.String("spam", "", "spam-label file (one source ID per line; overrides a preset's planted labels)")
		preset    = flag.String("preset", "UK2002", "generate this preset when -pages is not given")
		scale     = flag.Float64("scale", 0.01, "generator scale")
		seed      = flag.Uint64("seed", 1, "generator seed")
		algo      = flag.String("algo", "srsr", "srsr | sourcerank | pagerank | trustrank")
		alpha     = flag.Float64("alpha", 0.85, "mixing parameter α")
		top       = flag.Int("top", 10, "show this many top-ranked entries")
		topK      = flag.Int("throttle-topk", 0, "sources to throttle fully (0 = 2.7% of sources)")
		workers   = flag.Int("workers", 0, "solver goroutines (0 = GOMAXPROCS)")
		precision = flag.String("precision", "float64", "PageRank solve arithmetic: float64 (reference) | float32 (bandwidth kernels; scores stay float64; pagerank only)")
		savePath  = flag.String("save", "", "write the score vector (per source, or per page for pagerank) to this file (binary)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		slabDir   = flag.String("slab-dir", "", "commit the solve operand as a memory-mapped slab file under this directory (out-of-core solve; pagerank only)")
		maxResStr = flag.String("max-resident", "", "residency budget for the slab-backed operand, e.g. 512m (requires -slab-dir; 0 or empty maps without release-behind; pagerank only)")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	prec, err := linalg.ParsePrecision(*precision)
	if err != nil {
		fatal(err)
	}
	if err := checkHonoured(*algo, *topK != 0, *slabDir != "", *maxResStr != "", prec); errors.Is(err, errUnknownAlgorithm) {
		fatal(err)
	} else if err != nil {
		fmt.Fprintf(os.Stderr, "srank: %v\n", err)
		os.Exit(2)
	}
	var maxResident int64
	if *maxResStr != "" {
		if maxResident, err = sysmem.ParseBytes(*maxResStr); err != nil {
			fatal(err)
		}
		if *slabDir == "" {
			fatal(fmt.Errorf("-max-resident requires -slab-dir"))
		}
	}
	if *slabDir != "" {
		if err := os.MkdirAll(*slabDir, 0o755); err != nil {
			fatal(err)
		}
	}

	ds, load, err := gen.Load(*pagesPath, *preset, *scale, *seed)
	if err != nil {
		fatal(err)
	}
	if load != nil {
		fmt.Fprintf(os.Stderr, "srank: %v\n", *load)
	}
	pg, spamSources := ds.Pages, ds.SpamSources
	// A -spam file's labels replace a preset's planted ones, as in srserve.
	if *spamPath != "" {
		if spamSources, err = gen.ReadSpamLabels(*spamPath, pg.NumSources()); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("corpus: %d pages, %d links, %d sources, %d labeled spam\n",
		pg.NumPages(), pg.NumLinks(), pg.NumSources(), len(spamSources))

	var scores linalg.Vector // what -save writes: per page or per source, as the algorithm ranks
	switch *algo {
	case "pagerank":
		var stats linalg.IterStats
		if *slabDir != "" {
			scores, stats, err = pageRankSlab(pg, *alpha, *workers, prec, *slabDir, maxResident)
			if err != nil {
				fatal(err)
			}
		} else {
			res, err := rank.PageRank(pg.ToGraph(), rank.Options{Alpha: *alpha, Workers: *workers, Precision: prec})
			if err != nil {
				fatal(err)
			}
			scores, stats = res.Scores, res.Stats
		}
		printStats(stats)
		printTop(scores, *top, func(id int) string {
			return fmt.Sprintf("page %-8d %-28s ", id, pg.SourceLabel(pg.SourceOf(int32(id))))
		})
	case "sourcerank", "srsr", "trustrank":
		sg, err := source.Build(pg, source.Options{})
		if err != nil {
			fatal(err)
		}
		scores, err = sourceLevelScores(*algo, sg, spamSources, *alpha, *topK, *workers)
		if err != nil {
			fatal(err)
		}
		printTop(scores, *top, func(id int) string {
			return fmt.Sprintf("%-28s (%d pages)  ", sg.Labels[id], sg.PageCount[id])
		})
	}
	if *savePath != "" {
		if err := linalg.WriteVectorFile(*savePath, scores); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d scores to %s\n", len(scores), *savePath)
	}
}

// errUnknownAlgorithm is checkHonoured's refusal of an -algo value srank
// does not run; main exits 1 on it, before the corpus is read.
var errUnknownAlgorithm = errors.New("unknown algorithm")

// checkHonoured refuses an unknown algo, then reports the first flag that
// algo would silently drop: only srsr throttles a top-k set, and only
// page-level PageRank solves over a slab or at float32 (a source-level
// solve is in-heap float64).
func checkHonoured(algo string, topK, slab, maxResident bool, prec linalg.Precision) error {
	switch algo {
	case "srsr", "sourcerank", "pagerank", "trustrank":
	default:
		return fmt.Errorf("%w %q", errUnknownAlgorithm, algo)
	}
	switch {
	case topK && algo != "srsr":
		return fmt.Errorf("-throttle-topk is not honoured by -algo %s (srsr only)", algo)
	case algo == "pagerank":
		return nil
	case slab:
		return fmt.Errorf("-slab-dir is not honoured by -algo %s (pagerank only)", algo)
	case maxResident:
		return fmt.Errorf("-max-resident is not honoured by -algo %s (pagerank only)", algo)
	case prec == linalg.Float32:
		return fmt.Errorf("-precision float32 is not honoured by -algo %s (pagerank only)", algo)
	}
	return nil
}

func sourceLevelScores(algo string, sg *source.Graph, spamSources []int32, alpha float64, topK, workers int) (linalg.Vector, error) {
	switch algo {
	case "sourcerank":
		res, err := core.BaselineSourceRank(sg, core.Config{Alpha: alpha, Workers: workers})
		if err != nil {
			return nil, err
		}
		printStats(res.Stats)
		return res.Scores, nil
	case "trustrank":
		// The served TrustRank's seeds, so both print the same vector.
		trusted := server.TrustedSeeds(sg, spamSources)
		res, err := rank.TrustRank(sg.Structure(), trusted, rank.Options{Alpha: alpha, Workers: workers})
		if err != nil {
			return nil, err
		}
		printStats(res.Stats)
		return res.Scores, nil
	default: // srsr
		if len(spamSources) == 0 {
			return nil, fmt.Errorf("srsr needs -spam labels or a preset with planted spam")
		}
		if topK == 0 {
			topK = throttle.DefaultTopK(sg.NumSources())
		}
		res, err := core.Pipeline(sg, core.PipelineConfig{
			Config:    core.Config{Alpha: alpha, Workers: workers},
			SpamSeeds: spamSources,
			TopK:      topK,
		})
		if err != nil {
			return nil, err
		}
		fmt.Print("proximity ")
		printStats(res.ProximityStats)
		fmt.Print("srsr ")
		printStats(res.Stats)
		fmt.Printf("throttled top-%d sources by spam proximity\n", topK)
		return res.Scores, nil
	}
}

// pageRankSlab is the fully out-of-core PageRank route: the page graph
// is compressed, lowered to transition slabs without materializing an
// in-RAM CSR (webgraph.BuildTransitionSlabs), and the power iteration
// streams the memory-mapped transpose with the uniform teleport folded
// into the kernel — so only the two dense iterate vectors stay resident.
// Scores are bitwise identical to rank.PageRank at every worker count.
func pageRankSlab(pg *pagegraph.Graph, alpha float64, workers int, prec linalg.Precision, slabDir string, maxResident int64) (linalg.Vector, linalg.IterStats, error) {
	c, err := webgraph.Compress(pg.ToGraph())
	if err != nil {
		return nil, linalg.IterStats{}, err
	}
	paths, err := webgraph.BuildTransitionSlabs(nil, slabDir, c, webgraph.SlabOptions{Precision: prec})
	if err != nil {
		return nil, linalg.IterStats{}, err
	}
	c = nil // the compressed graph is no longer needed; let the solve run lean
	if prec == linalg.Float32 {
		return solveSlab[float32](paths.PT, alpha, workers, maxResident)
	}
	return solveSlab[float64](paths.PT, alpha, workers, maxResident)
}

// solveSlab opens the transposed transition slab at path, whose values
// are stored as F, under the residency budget and runs the implicit-
// teleport power iteration over it.
func solveSlab[F linalg.Float](path string, alpha float64, workers int, maxResident int64) (linalg.Vector, linalg.IterStats, error) {
	s, err := linalg.OpenSlab[F](path, linalg.SlabOpenOptions{MaxResident: maxResident})
	if err != nil {
		return nil, linalg.IterStats{}, err
	}
	defer s.Close()
	return linalg.PowerMethodTUniform(s.Matrix(), alpha, linalg.SolverOptions{Workers: workers})
}

func printStats(st linalg.IterStats) {
	fmt.Printf("solver: %d iterations, residual %.2e, converged %v\n",
		st.Iterations, st.Residual, st.Converged)
}

// printTop prints the top entries of scores, highest first, each as its
// rank, what label says of its index, and its score.
func printTop(scores linalg.Vector, top int, label func(id int) string) {
	type entry struct {
		id    int
		score float64
	}
	all := make([]entry, len(scores))
	for i, s := range scores {
		all[i] = entry{i, s}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].score > all[b].score })
	if top > len(all) {
		top = len(all)
	}
	for i := 0; i < top; i++ {
		fmt.Printf("%3d. %s%.3e\n", i+1, label(all[i].id), all[i].score)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "srank: %v\n", err)
	os.Exit(1)
}

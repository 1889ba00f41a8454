// Command graphgen generates a synthetic Web corpus matching one of the
// paper's dataset shapes and writes it to disk, together with the ground-
// truth spam labels and summary statistics.
//
// Usage:
//
//	graphgen -preset WB2001 -scale 0.05 -seed 7 -out wb2001-sim
//
// produces wb2001-sim.pages (binary corpus), wb2001-sim.spam (one spam
// source ID per line), and prints the Table 1-style summary.
//
// With -spill-dir the generator never materializes the corpus: edges
// spill to sorted shard runs under the given directory (bounding RSS by
// -spill-buffer edges) and the merged stream is lowered directly to
// committed transition slabs in <out>.slabs/ — transition.slab (P) and
// transition_t.slab (Pᵀ), at -slab-precision — plus <out>.spam. That is
// the path for corpora whose page graphs exceed RAM; no .pages file is
// written. The slabs open with linalg.OpenSlabCSR(32) for out-of-core
// solves (srank's own -slab-dir commits its throttled operand the same
// way; cmd/bench exercises this exact chain end to end).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"sourcerank/internal/gen"
	"sourcerank/internal/linalg"
	"sourcerank/internal/source"
	"sourcerank/internal/webgraph"
)

func main() {
	var (
		preset    = flag.String("preset", "UK2002", "dataset shape: UK2002, IT2004, or WB2001")
		scale     = flag.Float64("scale", 0.02, "scale relative to the paper's Table 1")
		seed      = flag.Uint64("seed", 1, "deterministic generator seed")
		out       = flag.String("out", "corpus", "output file prefix")
		spillDir  = flag.String("spill-dir", "", "stream-generate through shard-run spills in this directory and emit <out>.slabs/ instead of <out>.pages (bounded RSS)")
		spillBuf  = flag.Int("spill-buffer", 0, "spill-path in-heap edge buffer, in edges (0 = gen.DefaultSpillEdges)")
		slabPrec  = flag.String("slab-precision", "float64", "spill-path slab value precision: float64 | float32")
		spillWork = flag.Int("spill-workers", 1, "spill-path run-prefetch workers during merges (never changes output bytes)")
	)
	flag.Parse()

	p := gen.Preset(*preset)
	if _, ok := gen.TableOneSources[p]; !ok {
		fmt.Fprintf(os.Stderr, "graphgen: unknown preset %q\n", *preset)
		os.Exit(2)
	}

	if *spillDir != "" {
		runSpill(p, *scale, *seed, *out, *spillDir, *spillBuf, *spillWork, *slabPrec)
		return
	}

	ds, err := gen.GeneratePreset(p, *scale, *seed)
	if err != nil {
		fatal(err)
	}

	pagesPath := *out + ".pages"
	f, err := os.Create(pagesPath)
	if err != nil {
		fatal(err)
	}
	if err := ds.Pages.Write(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}

	spamPath := *out + ".spam"
	if err := writeSpam(spamPath, ds.SpamSources); err != nil {
		fatal(err)
	}

	sg, err := source.Build(ds.Pages, source.Options{})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("preset:        %s (scale %.3g, seed %d)\n", p, *scale, *seed)
	fmt.Printf("pages:         %d\n", ds.Pages.NumPages())
	fmt.Printf("page links:    %d\n", ds.Pages.NumLinks())
	fmt.Printf("sources:       %d\n", sg.NumSources())
	fmt.Printf("source edges:  %d (%.1f per source)\n", sg.NumEdges,
		float64(sg.NumEdges)/float64(sg.NumSources()))
	fmt.Printf("spam sources:  %d\n", len(ds.SpamSources))
	fmt.Printf("wrote:         %s, %s\n", pagesPath, spamPath)
}

// runSpill is the bounded-RSS path: stream-generate into shard runs,
// lower the merged adjacency to transition slabs, and delete the runs.
func runSpill(p gen.Preset, scale float64, seed uint64, out, dir string, bufEdges, workers int, precSpec string) {
	var prec linalg.SlabPrecision
	switch precSpec {
	case "float64":
		prec = linalg.SlabFloat64
	case "float32":
		prec = linalg.SlabFloat32
	default:
		fmt.Fprintf(os.Stderr, "graphgen: unknown -slab-precision %q (want float64 or float32)\n", precSpec)
		os.Exit(2)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	corpus, err := gen.GenerateStreamPreset(p, scale, seed, gen.StreamOptions{
		Dir:         dir,
		BufferEdges: bufEdges,
		Workers:     workers,
	})
	if err != nil {
		fatal(err)
	}
	defer corpus.Remove()

	slabDir := out + ".slabs"
	if err := os.MkdirAll(slabDir, 0o755); err != nil {
		fatal(err)
	}
	paths, err := webgraph.BuildTransitionSlabsFrom(nil, slabDir, corpus, webgraph.SlabOptions{Precision: prec})
	if err != nil {
		fatal(err)
	}
	spamPath := out + ".spam"
	if err := writeSpam(spamPath, corpus.SpamSources); err != nil {
		fatal(err)
	}

	statSize := func(path string) int64 {
		fi, err := os.Stat(path)
		if err != nil {
			fatal(err)
		}
		return fi.Size()
	}
	fmt.Printf("preset:        %s (scale %.3g, seed %d, streamed)\n", p, scale, seed)
	fmt.Printf("pages:         %d\n", corpus.NumPages)
	fmt.Printf("page links:    %d\n", corpus.NumLinks)
	fmt.Printf("sources:       %d\n", corpus.NumSources)
	fmt.Printf("spam sources:  %d\n", len(corpus.SpamSources))
	fmt.Printf("slab files:    %s (%d bytes), %s (%d bytes)\n",
		filepath.Base(paths.P), statSize(paths.P), filepath.Base(paths.PT), statSize(paths.PT))
	fmt.Printf("wrote:         %s, %s\n", slabDir, spamPath)
}

func writeSpam(path string, spam []int32) error {
	sf, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(sf)
	for _, s := range spam {
		fmt.Fprintln(w, s)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return sf.Close()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
	os.Exit(1)
}

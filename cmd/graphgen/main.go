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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"sourcerank/internal/gen"
	"sourcerank/internal/linalg"
	"sourcerank/internal/source"
	"sourcerank/internal/webgraph"
)

// usageError is a bad flag value: reported like any error, exit status 2.
type usageError string

func (e usageError) Error() string { return string(e) }

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
		var usage usageError
		if errors.As(err, &usage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run is the whole command: args are the command-line arguments after
// the program name, and the summary goes to stdout. Every error comes
// back to main, so deferred cleanup has run by the time it exits.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("graphgen", flag.ExitOnError)
	var (
		preset    = fs.String("preset", "UK2002", "dataset shape: UK2002, IT2004, or WB2001")
		scale     = fs.Float64("scale", 0.02, "scale relative to the paper's Table 1")
		seed      = fs.Uint64("seed", 1, "deterministic generator seed")
		out       = fs.String("out", "corpus", "output file prefix")
		spillDir  = fs.String("spill-dir", "", "stream-generate through shard-run spills in this directory and emit <out>.slabs/ instead of <out>.pages (bounded RSS)")
		spillBuf  = fs.Int("spill-buffer", 0, "spill-path in-heap edge buffer, in edges (0 = gen.DefaultSpillEdges)")
		slabPrec  = fs.String("slab-precision", "float64", "spill-path slab value precision: float64 | float32")
		spillWork = fs.Int("spill-workers", 1, "spill-path run-prefetch workers during merges (never changes output bytes)")
	)
	fs.Parse(args) // ExitOnError: a bad flag has already exited 2

	p := gen.Preset(*preset)
	if _, ok := gen.TableOneSources[p]; !ok {
		return usageError(fmt.Sprintf("unknown preset %q", *preset))
	}

	if *spillDir != "" {
		return runSpill(stdout, p, *scale, *seed, *out, *spillDir, *spillBuf, *spillWork, *slabPrec)
	}

	ds, err := gen.GeneratePreset(p, *scale, *seed)
	if err != nil {
		return err
	}

	pagesPath := *out + ".pages"
	f, err := os.Create(pagesPath)
	if err != nil {
		return err
	}
	if err := ds.Pages.Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	spamPath := *out + ".spam"
	if err := writeSpam(spamPath, ds.SpamSources); err != nil {
		return err
	}

	sg, err := source.Build(ds.Pages, source.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "preset:        %s (scale %.3g, seed %d)\n", p, *scale, *seed)
	fmt.Fprintf(stdout, "pages:         %d\n", ds.Pages.NumPages())
	fmt.Fprintf(stdout, "page links:    %d\n", ds.Pages.NumLinks())
	fmt.Fprintf(stdout, "sources:       %d\n", sg.NumSources())
	fmt.Fprintf(stdout, "source edges:  %d (%.1f per source)\n", sg.NumEdges,
		float64(sg.NumEdges)/float64(sg.NumSources()))
	fmt.Fprintf(stdout, "spam sources:  %d\n", len(ds.SpamSources))
	fmt.Fprintf(stdout, "wrote:         %s, %s\n", pagesPath, spamPath)
	return nil
}

// runSpill is the bounded-RSS path: stream-generate into shard runs,
// lower the merged adjacency to transition slabs, and delete the runs —
// whether or not the lowering succeeded.
func runSpill(stdout io.Writer, p gen.Preset, scale float64, seed uint64, out, dir string, bufEdges, workers int, precSpec string) error {
	var prec linalg.Precision
	switch precSpec {
	case "float64":
		prec = linalg.Float64
	case "float32":
		prec = linalg.Float32
	default:
		return usageError(fmt.Sprintf("unknown -slab-precision %q (want float64 or float32)", precSpec))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	corpus, err := gen.GenerateStreamPreset(p, scale, seed, gen.StreamOptions{
		Dir:         dir,
		BufferEdges: bufEdges,
		Workers:     workers,
	})
	if err != nil {
		return err
	}
	defer corpus.Remove()

	slabDir := out + ".slabs"
	if err := os.MkdirAll(slabDir, 0o755); err != nil {
		return err
	}
	paths, err := webgraph.BuildTransitionSlabsFrom(nil, slabDir, corpus, webgraph.SlabOptions{Precision: prec})
	if err != nil {
		return err
	}
	spamPath := out + ".spam"
	if err := writeSpam(spamPath, corpus.SpamSources); err != nil {
		return err
	}

	var sizes [2]int64
	for i, path := range []string{paths.P, paths.PT} {
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		sizes[i] = fi.Size()
	}
	fmt.Fprintf(stdout, "preset:        %s (scale %.3g, seed %d, streamed)\n", p, scale, seed)
	fmt.Fprintf(stdout, "pages:         %d\n", corpus.NumPages)
	fmt.Fprintf(stdout, "page links:    %d\n", corpus.NumLinks)
	fmt.Fprintf(stdout, "sources:       %d\n", corpus.NumSources)
	fmt.Fprintf(stdout, "spam sources:  %d\n", len(corpus.SpamSources))
	fmt.Fprintf(stdout, "slab files:    %s (%d bytes), %s (%d bytes)\n",
		filepath.Base(paths.P), sizes[0], filepath.Base(paths.PT), sizes[1])
	fmt.Fprintf(stdout, "wrote:         %s, %s\n", slabDir, spamPath)
	return nil
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
		sf.Close()
		return err
	}
	return sf.Close()
}

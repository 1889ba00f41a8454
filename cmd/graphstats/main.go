// Command graphstats analyzes the structure of a corpus: degree
// statistics, strongly connected components, the bowtie decomposition,
// the bits per edge of the gap/varint adjacency codec, projected
// out-of-core sizes, and score inequality (Gini) under PageRank and the
// un-throttled SourceRank baseline.
//
// Usage:
//
//	graphstats -pages corpus.pages
//	graphstats -preset WB2001 -scale 0.01
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sourcerank/internal/core"
	"sourcerank/internal/gen"
	"sourcerank/internal/graph"
	"sourcerank/internal/linalg"
	"sourcerank/internal/pagegraph"
	"sourcerank/internal/rank"
	"sourcerank/internal/source"
	"sourcerank/internal/sysmem"
	"sourcerank/internal/webgraph"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "graphstats: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command: args are the command-line arguments after
// the program name, and the report goes to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("graphstats", flag.ExitOnError)
	var (
		pagesPath = fs.String("pages", "", "binary corpus from graphgen (overrides -preset)")
		preset    = fs.String("preset", "UK2002", "generate this preset when -pages is absent")
		scale     = fs.Float64("scale", 0.01, "generator scale")
		seed      = fs.Uint64("seed", 1, "generator seed")
	)
	fs.Parse(args) // ExitOnError: a bad flag has already exited 2

	pg, err := loadPages(*pagesPath, *preset, *scale, *seed)
	if err != nil {
		return err
	}
	g := pg.ToGraph()

	fmt.Fprintln(stdout, "== corpus ==")
	fmt.Fprintf(stdout, "pages %d, links %d, sources %d\n", pg.NumPages(), pg.NumLinks(), pg.NumSources())

	st := g.Stats()
	fmt.Fprintln(stdout, "\n== page graph ==")
	fmt.Fprintf(stdout, "mean out-degree %.2f, max out %d, max in %d\n", st.MeanOut, st.MaxOut, st.MaxIn)
	fmt.Fprintf(stdout, "dangling pages %d, isolated %d, self-loops %d\n", st.Dangling, st.Isolated, st.SelfLoops)

	scc := graph.SCC(g)
	_, largest := scc.Largest()
	fmt.Fprintf(stdout, "SCCs %d, largest %d nodes (%.1f%%)\n",
		scc.NumComponents(), largest, 100*float64(largest)/float64(g.NumNodes()))
	bt := graph.BowtieDecompose(g)
	fmt.Fprintf(stdout, "bowtie: core %d, in %d, out %d, disconnected %d\n",
		bt.Counts[graph.Core], bt.Counts[graph.In], bt.Counts[graph.Out], bt.Counts[graph.Disconnected])

	plain, err := webgraph.Compress(g)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "\n== compression ==")
	fmt.Fprintf(stdout, "raw adjacency:   %.2f bits/edge\n", 32.0)
	fmt.Fprintf(stdout, "gap varint:      %.2f bits/edge (%d bytes)\n", plain.BitsPerEdge(), plain.SizeBytes())

	// Out-of-core sizing: what the transition slabs (P and Pᵀ each hold
	// one entry per link) would occupy on disk, versus the working set an
	// out-of-core solve keeps resident — the RowPtr array plus two dense
	// float64 iterate vectors, the floor of any -max-resident budget;
	// Cols/Vals pages stream through two release windows sized from what
	// the budget adds on top (DESIGN §14).
	rows, nnz := g.NumNodes(), g.NumEdges()
	slab64 := linalg.SlabFileBytes(rows, nnz, linalg.Float64)
	slab32 := linalg.SlabFileBytes(rows, nnz, linalg.Float32)
	resident := 8*int64(rows+1) + 2*8*int64(rows)
	fmt.Fprintln(stdout, "\n== out-of-core (projected) ==")
	fmt.Fprintf(stdout, "transition slab: %s float64 / %s float32 (x2 for P and Pᵀ)\n",
		sysmem.FormatBytes(slab64), sysmem.FormatBytes(slab32))
	fmt.Fprintf(stdout, "solve residency: ~%s + 2 release windows (RowPtr + 2 iterate vectors; matrix pages stream)\n",
		sysmem.FormatBytes(resident))

	sg, err := source.Build(pg, source.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "\n== source graph ==")
	fmt.Fprintf(stdout, "sources %d, edges %d (%.1f per source)\n",
		sg.NumSources(), sg.NumEdges, float64(sg.NumEdges)/float64(sg.NumSources()))
	ss := sg.Structure().Stats()
	fmt.Fprintf(stdout, "max out %d, max in %d, self-loops %d\n", ss.MaxOut, ss.MaxIn, ss.SelfLoops)

	pr, err := rank.PageRank(g, rank.Options{})
	if err != nil {
		return err
	}
	sr, err := core.BaselineSourceRank(sg, core.Config{})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "\n== score inequality ==")
	fmt.Fprintf(stdout, "PageRank Gini:   %.3f (%d iterations)\n", linalg.Gini(pr.Scores), pr.Stats.Iterations)
	fmt.Fprintf(stdout, "SourceRank Gini: %.3f (%d iterations)\n", linalg.Gini(sr.Scores), sr.Stats.Iterations)
	return nil
}

func loadPages(path, preset string, scale float64, seed uint64) (*pagegraph.Graph, error) {
	if path == "" {
		p := gen.Preset(preset)
		if _, ok := gen.TableOneSources[p]; !ok {
			return nil, fmt.Errorf("unknown preset %q", preset)
		}
		ds, err := gen.GeneratePreset(p, scale, seed)
		if err != nil {
			return nil, err
		}
		return ds.Pages, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return pagegraph.ReadFrom(f)
}

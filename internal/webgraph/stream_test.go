package webgraph_test

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"sourcerank/internal/gen"
	"sourcerank/internal/linalg"
	"sourcerank/internal/webgraph"
)

// streamFixture generates one corpus both ways: in RAM (Dataset) and
// streamed through spill runs (Corpus), with a buffer small enough to
// force a multi-run merge.
func streamFixture(t *testing.T) (*gen.Dataset, *gen.Corpus) {
	t.Helper()
	cfg := gen.PresetConfig(gen.UK2002, 0.002, 23)
	ds, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := gen.GenerateStream(cfg, gen.StreamOptions{Dir: t.TempDir(), BufferEdges: 1024, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Runs()) < 2 {
		t.Fatalf("fixture produced %d runs, want a multi-run merge", len(c.Runs()))
	}
	return ds, c
}

// TestCompressFromMatchesCompress pins the streamed compressor to the
// in-RAM one: same corpus, same encoded size, same decoded adjacency
// (TestBuildTransitionSlabsFromRuns compares the bytes built from each).
func TestCompressFromMatchesCompress(t *testing.T) {
	ds, c := streamFixture(t)
	want, err := webgraph.Compress(ds.Pages.ToGraph())
	if err != nil {
		t.Fatal(err)
	}
	got, err := webgraph.CompressFrom(c)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("streamed compress shape (%d nodes, %d edges) != in-RAM (%d, %d)",
			got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	if got.SizeBytes() != want.SizeBytes() {
		t.Fatalf("streamed encoding is %d bytes, in-RAM %d", got.SizeBytes(), want.SizeBytes())
	}
	wantG, err := want.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	gotG, err := got.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	for u := int32(0); int(u) < wantG.NumNodes(); u++ {
		if !slices.Equal(gotG.Successors(u), wantG.Successors(u)) {
			t.Fatalf("node %d: streamed compression decodes to %v, in-RAM to %v", u, gotG.Successors(u), wantG.Successors(u))
		}
	}
}

// TestBuildTransitionSlabsFromRuns pins the runs→slabs path: transition
// slabs built directly from shard runs must be byte-identical to slabs
// built from the compressed graph of the same corpus, in both precisions
// with the transpose in one bucket and under a bucket buffer small enough
// to force multi-pass transposes. The build walks its source from two
// goroutines at once, so under -race this is also the check that both
// source kinds tolerate overlapping passes.
func TestBuildTransitionSlabsFromRuns(t *testing.T) {
	ds, c := streamFixture(t)
	comp, err := webgraph.Compress(ds.Pages.ToGraph())
	if err != nil {
		t.Fatal(err)
	}
	for _, prec := range []struct {
		name string
		opt  webgraph.SlabOptions
		buf  int64 // bucket buffer bytes; 0 keeps the default
	}{
		{"one bucket", webgraph.SlabOptions{}, 0},
		{"float64", webgraph.SlabOptions{}, 2048},
		{"float32", webgraph.SlabOptions{Precision: linalg.Float32}, 2048},
	} {
		t.Run(prec.name, func(t *testing.T) {
			if prec.buf > 0 {
				webgraph.SetSlabBufferBytes(t, prec.buf)
			}
			wantPaths, err := webgraph.BuildTransitionSlabs(nil, t.TempDir(), comp, prec.opt)
			if err != nil {
				t.Fatal(err)
			}
			gotPaths, err := webgraph.BuildTransitionSlabsFrom(nil, t.TempDir(), c, prec.opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, pair := range [][2]string{{wantPaths.P, gotPaths.P}, {wantPaths.PT, gotPaths.PT}} {
				want, err := os.ReadFile(pair[0])
				if err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(pair[1])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("slab %s from runs differs from compressed-graph build", filepath.Base(pair[1]))
				}
			}
		})
	}
}

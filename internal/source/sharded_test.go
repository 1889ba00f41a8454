package source

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"sourcerank/internal/gen"
	"sourcerank/internal/linalg"
	"sourcerank/internal/pagegraph"
)

// equalGraphs asserts two source graphs are byte-for-byte identical:
// matrices compared field by field (RowPtr, Cols, and exact float bits in
// Vals), plus labels, page counts, and edge accounting.
func equalGraphs(t *testing.T, name string, want, got *Graph) {
	t.Helper()
	if !reflect.DeepEqual(want.Labels, got.Labels) {
		t.Fatalf("%s: Labels differ", name)
	}
	if !reflect.DeepEqual(want.PageCount, got.PageCount) {
		t.Fatalf("%s: PageCount differs", name)
	}
	if want.NumEdges != got.NumEdges {
		t.Fatalf("%s: NumEdges %d != %d", name, want.NumEdges, got.NumEdges)
	}
	equalCSR(t, name+"/Counts", want.Counts, got.Counts)
	equalCSR(t, name+"/T", want.T, got.T)
}

func equalCSR(t *testing.T, name string, want, got *linalg.CSR) {
	t.Helper()
	if want.Rows != got.Rows || want.ColsN != got.ColsN {
		t.Fatalf("%s: shape (%d,%d) != (%d,%d)", name, got.Rows, got.ColsN, want.Rows, want.ColsN)
	}
	if !reflect.DeepEqual(want.RowPtr, got.RowPtr) {
		t.Fatalf("%s: RowPtr differs\nwant %v\ngot  %v", name, want.RowPtr, got.RowPtr)
	}
	if !reflect.DeepEqual(want.Cols, got.Cols) {
		t.Fatalf("%s: Cols differs", name)
	}
	if len(want.Vals) != len(got.Vals) {
		t.Fatalf("%s: nnz %d != %d", name, len(got.Vals), len(want.Vals))
	}
	for i := range want.Vals {
		if want.Vals[i] != got.Vals[i] {
			t.Fatalf("%s: Vals[%d] = %v, want %v", name, i, got.Vals[i], want.Vals[i])
		}
	}
}

// TestBuildShardedMatchesSerial is the tentpole determinism check: the
// sharded Build must reproduce BuildSerial byte for byte at every worker
// count, for both weightings.
func TestBuildShardedMatchesSerial(t *testing.T) {
	graphs := map[string]*pagegraph.Graph{"fixture": fixture(t)}
	for _, seed := range []uint64{1, 42, 777} {
		ds, err := gen.Generate(corpusConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		graphs[fmt.Sprintf("corpus-%d", seed)] = ds.Pages
	}
	opts := []Options{{}, {Weighting: Uniform}}
	for name, pg := range graphs {
		for _, base := range opts {
			want, err := BuildSerial(pg, base)
			if err != nil {
				t.Fatal(err)
			}
			for workers := 1; workers <= 16; workers++ {
				opt := base
				opt.Workers = workers
				got, err := Build(pg, opt)
				if err != nil {
					t.Fatal(err)
				}
				equalGraphs(t, name+"/"+base.Weighting.String(), want, got)
				if err := got.Validate(); err != nil {
					t.Fatalf("%s workers=%d: %v", name, workers, err)
				}
			}
		}
	}
}

// TestBuildWorkersExceedPages covers the clamp when the shard count
// outstrips the page count.
func TestBuildWorkersExceedPages(t *testing.T) {
	pg := fixture(t) // 6 pages
	want, err := BuildSerial(pg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Build(pg, Options{Workers: 64})
	if err != nil {
		t.Fatal(err)
	}
	equalGraphs(t, "overclamp", want, got)
}

// TestBuildRaceStress runs many sharded builds concurrently over a shared
// page graph; with -race this is the aggregation-stress satellite.
func TestBuildRaceStress(t *testing.T) {
	ds, err := gen.Generate(corpusConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	want, err := BuildSerial(ds.Pages, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got, err := Build(ds.Pages, Options{Workers: 1 + g*2})
			if err != nil {
				t.Error(err)
				return
			}
			equalGraphs(t, "race", want, got)
		}(g)
	}
	wg.Wait()
}

// TestTransposedTCached checks the per-graph transpose cache: repeated
// and concurrent calls return the same materialization.
func TestTransposedTCached(t *testing.T) {
	sg, err := Build(fixture(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := linalg.TransposeMaterializations()
	first := sg.TransposedT(2)
	results := make([]*linalg.CSR, 8)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = sg.TransposedT(1 + g)
		}(g)
	}
	wg.Wait()
	for g, r := range results {
		if r != first {
			t.Fatalf("call %d returned a distinct transpose", g)
		}
	}
	if d := linalg.TransposeMaterializations() - before; d != 1 {
		t.Fatalf("materialized %d transposes, want 1", d)
	}
	want := sg.T.Transpose()
	equalCSR(t, "cached-tt", want, first)
}

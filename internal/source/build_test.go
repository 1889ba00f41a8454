package source

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"sourcerank/internal/gen"
	"sourcerank/internal/graph"
	"sourcerank/internal/linalg"
	"sourcerank/internal/pagegraph"
)

// equalGraphs asserts two source graphs are byte-for-byte identical:
// matrices compared field by field (RowPtr, Cols, and exact float bits in
// Vals), plus labels, page counts, and edge accounting.
func equalGraphs(t *testing.T, name string, want, got *Graph) {
	t.Helper()
	if !slices.Equal(want.Labels, got.Labels) {
		t.Fatalf("%s: Labels differ", name)
	}
	if !slices.Equal(want.PageCount, got.PageCount) {
		t.Fatalf("%s: PageCount differs", name)
	}
	if want.NumEdges != got.NumEdges {
		t.Fatalf("%s: NumEdges %d != %d", name, want.NumEdges, got.NumEdges)
	}
	equalCSR(t, name+"/Counts", want.Counts, got.Counts)
	equalCSR(t, name+"/T", want.T, got.T)
}

// equalCSR compares element by element, so an empty matrix matches
// whether its Cols and Vals are nil or zero-length.
func equalCSR(t *testing.T, name string, want, got *linalg.CSR) {
	t.Helper()
	if want.Rows != got.Rows || want.ColsN != got.ColsN {
		t.Fatalf("%s: shape (%d,%d) != (%d,%d)", name, got.Rows, got.ColsN, want.Rows, want.ColsN)
	}
	if !slices.Equal(want.RowPtr, got.RowPtr) {
		t.Fatalf("%s: RowPtr differs\nwant %v\ngot  %v", name, want.RowPtr, got.RowPtr)
	}
	if !slices.Equal(want.Cols, got.Cols) {
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

// pageGraph builds a page graph with the given number of sources, one
// page per owners entry (owned by that source), and the given links.
func pageGraph(sources int, owners []pagegraph.SourceID, links [][2]pagegraph.PageID) *pagegraph.Graph {
	g := pagegraph.New()
	for s := 0; s < sources; s++ {
		g.AddSource(fmt.Sprintf("s%d.com", s))
	}
	for _, s := range owners {
		g.AddPage(s)
	}
	for _, l := range links {
		g.AddLink(l[0], l[1])
	}
	return g
}

// edgeCaseGraphs returns the page-graph shapes the row accumulator must
// handle beside generated corpora.
func edgeCaseGraphs(t *testing.T) map[string]*pagegraph.Graph {
	graphs := map[string]*pagegraph.Graph{"fixture": fixture(t)}

	// Non-contiguous ownership: pages are appended to earlier sources
	// after later sources' pages, the way incremental ingestion grows a
	// graph, so a source's pages are scattered across the ID space.
	var owners []pagegraph.SourceID
	var links [][2]pagegraph.PageID
	for p := 0; p < 60; p++ {
		owners = append(owners, pagegraph.SourceID(p*3%7))
		links = append(links, [2]pagegraph.PageID{int32(p), int32((p*7 + 3) % 60)}, [2]pagegraph.PageID{int32(p), int32((p*11 + 1) % 60)})
	}
	graphs["interleaved"] = pageGraph(7, owners, links)

	// Sources 0, 2 and 5 (the last) own no pages.
	graphs["empty-sources"] = pageGraph(6,
		[]pagegraph.SourceID{1, 3, 4, 1, 3, 4},
		[][2]pagegraph.PageID{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 4}, {5, 3}})

	// Self-links and duplicate links: each counts once per page.
	graphs["self-and-duplicates"] = pageGraph(3,
		[]pagegraph.SourceID{0, 0, 1, 2, 1},
		[][2]pagegraph.PageID{{0, 0}, {0, 0}, {0, 2}, {0, 2}, {0, 4}, {1, 1}, {2, 2}, {2, 3}, {2, 3}, {3, 3}, {4, 0}, {4, 1}})

	// Pages with no out-links: every row dangling, Counts empty.
	graphs["no-links"] = pageGraph(4, []pagegraph.SourceID{0, 1, 2, 3, 3, 0}, nil)

	// Sources only, no pages at all.
	graphs["no-pages"] = pageGraph(5, nil, nil)

	// One page linking to every page of a single source, plus one other.
	owners = []pagegraph.SourceID{0, 2}
	links = [][2]pagegraph.PageID{{0, 1}}
	for p := 2; p < 52; p++ {
		owners = append(owners, 1)
		links = append(links, [2]pagegraph.PageID{0, int32(p)})
	}
	graphs["fan-into-one-source"] = pageGraph(3, owners, links)

	for _, seed := range []uint64{1, 42, 777} {
		ds, err := gen.Generate(corpusConfig(seed))
		if err != nil {
			t.Fatal(err)
		}
		graphs[fmt.Sprintf("corpus-%d", seed)] = ds.Pages
	}
	return graphs
}

// TestBuildMatchesSerial is the determinism check: Build must reproduce
// BuildSerial byte for byte at every worker count, including counts above
// the source count, for both weightings.
func TestBuildMatchesSerial(t *testing.T) {
	for name, pg := range edgeCaseGraphs(t) {
		for _, w := range []Weighting{Consensus, Uniform} {
			want, err := BuildSerial(pg, Options{Weighting: w})
			if err != nil {
				t.Fatal(err)
			}
			for workers := 1; workers <= 16; workers++ {
				got, err := Build(pg, Options{Weighting: w, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				equalGraphs(t, fmt.Sprintf("%s/%s/w%d", name, w, workers), want, got)
				if err := got.Validate(); err != nil {
					t.Fatalf("%s workers=%d: %v", name, workers, err)
				}
			}
		}
	}
}

// TestBuildWorkersExceedSources covers the clamp when the worker count
// outstrips the source count, the unit Build splits its work by.
func TestBuildWorkersExceedSources(t *testing.T) {
	pg := fixture(t) // 3 sources
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

// TestStructureMatchesBuilder checks that Structure, assembled from the
// Counts arrays, equals the graph a Builder makes of the same edges.
func TestStructureMatchesBuilder(t *testing.T) {
	for name, pg := range edgeCaseGraphs(t) {
		sg, err := Build(pg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b := graph.NewBuilder(sg.NumSources())
		for i := 0; i < sg.Counts.Rows; i++ {
			cols, _ := sg.Counts.Row(i)
			for _, j := range cols {
				b.AddEdge(int32(i), j)
			}
		}
		want, got := b.Build(), sg.Structure()
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want.NumNodes() != got.NumNodes() || want.NumEdges() != got.NumEdges() {
			t.Fatalf("%s: %d nodes %d edges, want %d and %d", name, got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
		}
		for u := 0; u < want.NumNodes(); u++ {
			if !slices.Equal(want.Successors(int32(u)), got.Successors(int32(u))) {
				t.Fatalf("%s: node %d successors %v, want %v", name, u, got.Successors(int32(u)), want.Successors(int32(u)))
			}
		}
	}
}

// FuzzBuildMatchesSerial checks Build against BuildSerial on small random
// page graphs: the first half of data assigns one page per byte to a
// source, the second half adds links as (from, to) byte pairs.
func FuzzBuildMatchesSerial(f *testing.F) {
	f.Add(uint8(3), uint8(2), []byte{0, 0, 0, 1, 1, 2, 0, 3, 1, 3, 2, 4, 0, 1, 3, 5})
	f.Add(uint8(6), uint8(15), []byte{5, 1, 5, 1, 0, 0, 1, 1, 2, 3, 2, 2})
	f.Add(uint8(1), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, sources, workers uint8, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		n := 1 + int(sources%12)
		half := len(data) / 2
		owners := make([]pagegraph.SourceID, half)
		for i, b := range data[:half] {
			owners[i] = pagegraph.SourceID(int(b) % n)
		}
		var links [][2]pagegraph.PageID
		if half > 0 {
			for i := half; i+1 < len(data); i += 2 {
				links = append(links, [2]pagegraph.PageID{int32(int(data[i]) % half), int32(int(data[i+1]) % half)})
			}
		}
		pg := pageGraph(n, owners, links)
		for _, w := range []Weighting{Consensus, Uniform} {
			want, err := BuildSerial(pg, Options{Weighting: w})
			if err != nil {
				t.Fatal(err)
			}
			got, err := Build(pg, Options{Weighting: w, Workers: 1 + int(workers%16)})
			if err != nil {
				t.Fatal(err)
			}
			equalGraphs(t, w.String(), want, got)
		}
	})
}

// TestBuildRaceStress runs many builds concurrently over a shared page
// graph; with -race this is the aggregation-stress check.
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

package source

import (
	"math"
	"slices"
	"testing"

	"sourcerank/internal/graph"
	"sourcerank/internal/pagegraph"
)

// fixture builds a page graph with three sources:
//
//	A (pages 0,1,2), B (pages 3,4), C (page 5).
//
// Links: 0->3, 1->3, 2->4 (three unique A-pages into B),
// 0->1 (intra-A), 3->5 (one B-page into C), 5 dangling.
func fixture(t *testing.T) *pagegraph.Graph {
	t.Helper()
	g := pagegraph.New()
	a := g.AddSource("a.com")
	b := g.AddSource("b.com")
	c := g.AddSource("c.com")
	for i := 0; i < 3; i++ {
		g.AddPage(a)
	}
	g.AddPage(b)
	g.AddPage(b)
	g.AddPage(c)
	g.AddLink(0, 3)
	g.AddLink(1, 3)
	g.AddLink(2, 4)
	g.AddLink(0, 1)
	g.AddLink(3, 5)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestConsensusCounts(t *testing.T) {
	sg, err := Build(fixture(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sg.Validate(); err != nil {
		t.Fatal(err)
	}
	// w(A,B): pages 0,1 link to page 3 and page 2 links to page 4 — all
	// three unique A-pages point into B.
	if got := sg.Counts.At(0, 1); got != 3 {
		t.Errorf("w(A,B) = %v, want 3", got)
	}
	// w(A,A): only page 0 links intra-source.
	if got := sg.Counts.At(0, 0); got != 1 {
		t.Errorf("w(A,A) = %v, want 1", got)
	}
	// w(B,C): one unique page.
	if got := sg.Counts.At(1, 2); got != 1 {
		t.Errorf("w(B,C) = %v, want 1", got)
	}
	if got := sg.Counts.At(2, 0); got != 0 {
		t.Errorf("w(C,A) = %v, want 0", got)
	}
}

func TestConsensusUniquePageSemantics(t *testing.T) {
	// A page linking to many pages of the same target source counts once.
	g := pagegraph.New()
	a := g.AddSource("a.com")
	b := g.AddSource("b.com")
	p := g.AddPage(a)
	q1 := g.AddPage(b)
	q2 := g.AddPage(b)
	q3 := g.AddPage(b)
	g.AddLink(p, q1)
	g.AddLink(p, q2)
	g.AddLink(p, q3)
	sg, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sg.Counts.At(0, 1); got != 1 {
		t.Errorf("w(A,B) = %v, want 1 (unique-page count)", got)
	}
}

func TestConsensusTransitionNormalized(t *testing.T) {
	sg, err := Build(fixture(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Row A: w(A,A)=1, w(A,B)=3, total 4.
	if got := sg.T.At(0, 0); math.Abs(got-0.25) > 1e-15 {
		t.Errorf("T[A,A] = %v, want 0.25", got)
	}
	if got := sg.T.At(0, 1); math.Abs(got-0.75) > 1e-15 {
		t.Errorf("T[A,B] = %v, want 0.75", got)
	}
	// Row C is dangling: pure self-loop.
	if got := sg.T.At(2, 2); got != 1 {
		t.Errorf("T[C,C] = %v, want 1", got)
	}
}

func TestSelfEdgeAugmentation(t *testing.T) {
	sg, err := Build(fixture(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Source B has no intra-source page links, but the self-edge must
	// exist structurally (with weight 0) so throttling can raise it.
	cols, _ := sg.T.Row(1)
	found := false
	for _, c := range cols {
		if c == 1 {
			found = true
		}
	}
	if !found {
		t.Error("self-edge (B,B) not present after augmentation")
	}
	if got := sg.T.At(1, 1); got != 0 {
		t.Errorf("T[B,B] = %v, want 0", got)
	}
}

func TestUniformWeighting(t *testing.T) {
	sg, err := Build(fixture(t), Options{Weighting: Uniform})
	if err != nil {
		t.Fatal(err)
	}
	if err := sg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Row A has two distinct out-edges (A and B): each 1/2 regardless of
	// page counts.
	if got := sg.T.At(0, 0); math.Abs(got-0.5) > 1e-15 {
		t.Errorf("uniform T[A,A] = %v, want 0.5", got)
	}
	if got := sg.T.At(0, 1); math.Abs(got-0.5) > 1e-15 {
		t.Errorf("uniform T[A,B] = %v, want 0.5", got)
	}
}

func TestNumEdges(t *testing.T) {
	sg, err := Build(fixture(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Derived source edges: (A,A), (A,B), (B,C) = 3.
	if sg.NumEdges != 3 {
		t.Errorf("NumEdges = %d, want 3", sg.NumEdges)
	}
}

func TestStructure(t *testing.T) {
	sg, err := Build(fixture(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := sg.Structure()
	if st.NumNodes() != 3 {
		t.Fatalf("nodes = %d", st.NumNodes())
	}
	if !st.HasEdge(0, 1) || !st.HasEdge(1, 2) || !st.HasEdge(0, 0) {
		t.Error("derived structure edges missing")
	}
	if st.HasEdge(1, 1) {
		t.Error("artificial self-edge leaked into structure")
	}
	if st.NumEdges() != 3 {
		t.Errorf("edges = %d, want 3", st.NumEdges())
	}
}

func TestEmptyPageGraph(t *testing.T) {
	if _, err := Build(pagegraph.New(), Options{}); err == nil {
		t.Error("empty page graph accepted")
	}
}

func TestPageCountsCarried(t *testing.T) {
	sg, err := Build(fixture(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sg.PageCount[0] != 3 || sg.PageCount[1] != 2 || sg.PageCount[2] != 1 {
		t.Errorf("PageCount = %v", sg.PageCount)
	}
	if sg.NumSources() != 3 {
		t.Errorf("NumSources = %d", sg.NumSources())
	}
	if sg.Labels[2] != "c.com" {
		t.Errorf("label = %q", sg.Labels[2])
	}
}

// Hijack resistance property from §3.2: adding one hijacked page-link from
// a big source moves the consensus weight far less than the uniform
// weight. This is the core claim motivating consensus weighting.
func TestConsensusHijackResistance(t *testing.T) {
	build := func(hijacked bool) (consensusW, uniformW float64) {
		g := pagegraph.New()
		legit := g.AddSource("legit.com")
		other := g.AddSource("other.com")
		spam := g.AddSource("spam.com")
		// 100 pages in legit all linking to other.com.
		op := g.AddPage(other)
		sp := g.AddPage(spam)
		for i := 0; i < 100; i++ {
			p := g.AddPage(legit)
			g.AddLink(p, op)
		}
		if hijacked {
			// Spammer hijacks ONE page of legit.com.
			g.AddLink(g.PagesOf(legit)[0], sp)
		}
		cg, err := Build(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ug, err := Build(g, Options{Weighting: Uniform})
		if err != nil {
			t.Fatal(err)
		}
		return cg.T.At(0, 2), ug.T.At(0, 2)
	}
	cw, uw := build(true)
	if cw0, _ := build(false); cw0 != 0 {
		t.Fatalf("baseline weight nonzero: %v", cw0)
	}
	// Consensus: 1 page of 101 page-votes -> ~0.0099.
	if cw > 0.02 {
		t.Errorf("consensus weight after hijack = %v, want < 0.02", cw)
	}
	// Uniform: 1 of 2 distinct edges -> 0.5.
	if uw < 0.3 {
		t.Errorf("uniform weight after hijack = %v, want >= 0.3", uw)
	}
	if cw >= uw {
		t.Errorf("consensus (%v) should resist hijack better than uniform (%v)", cw, uw)
	}
}

// TestStructureAliasesCounts: Structure reads Counts' own RowPtr and Cols,
// and the graph equals one over cloned arrays.
func TestStructureAliasesCounts(t *testing.T) {
	sg, err := Build(fixture(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := sg.Structure()
	clone, err := graph.FromParts(sg.Counts.Rows, slices.Clone(sg.Counts.RowPtr), slices.Clone(sg.Counts.Cols))
	if err != nil {
		t.Fatal(err)
	}
	if st.NumNodes() != clone.NumNodes() || st.NumEdges() != clone.NumEdges() {
		t.Fatalf("structure (%d, %d) vs clone (%d, %d)", st.NumNodes(), st.NumEdges(), clone.NumNodes(), clone.NumEdges())
	}
	for u := 0; u < st.NumNodes(); u++ {
		row := st.Successors(graph.NodeID(u))
		if !slices.Equal(row, clone.Successors(graph.NodeID(u))) {
			t.Fatalf("row %d: %v vs %v", u, row, clone.Successors(graph.NodeID(u)))
		}
		if len(row) > 0 && &row[0] != &sg.Counts.Cols[sg.Counts.RowPtr[u]] {
			t.Fatalf("row %d does not alias Counts.Cols", u)
		}
	}
}

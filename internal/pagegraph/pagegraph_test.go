package pagegraph

import (
	"testing"

	"sourcerank/internal/urlutil"
)

// twoSourceFixture builds: source A with pages 0,1; source B with page 2.
// Links: 0->1 (intra), 0->2, 1->2 (inter), 2 dangling.
func twoSourceFixture(t testing.TB) *Graph {
	t.Helper()
	g := New()
	a := g.AddSource("a.example.com")
	b := g.AddSource("b.example.com")
	p0 := g.AddPage(a)
	p1 := g.AddPage(a)
	p2 := g.AddPage(b)
	g.AddLink(p0, p1)
	g.AddLink(p0, p2)
	g.AddLink(p1, p2)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBasicConstruction(t *testing.T) {
	g := twoSourceFixture(t)
	if g.NumPages() != 3 || g.NumSources() != 2 || g.NumLinks() != 3 {
		t.Fatalf("shape %d/%d/%d", g.NumPages(), g.NumSources(), g.NumLinks())
	}
	if g.SourceOf(0) != 0 || g.SourceOf(2) != 1 {
		t.Error("source assignment wrong")
	}
	if g.SourceLabel(1) != "b.example.com" {
		t.Errorf("label = %q", g.SourceLabel(1))
	}
}

func TestPagesOfAndCounts(t *testing.T) {
	g := twoSourceFixture(t)
	pa := g.PagesOf(0)
	if len(pa) != 2 || pa[0] != 0 || pa[1] != 1 {
		t.Errorf("PagesOf(0) = %v", pa)
	}
	counts := g.PageCounts()
	if counts[0] != 2 || counts[1] != 1 {
		t.Errorf("PageCounts = %v", counts)
	}
}

func TestAddPageUnknownSourcePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	New().AddPage(0)
}

func TestAddLinkUnknownPagePanics(t *testing.T) {
	g := New()
	s := g.AddSource("x")
	g.AddPage(s)
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	g.AddLink(0, 5)
}

func TestCloneIndependence(t *testing.T) {
	g := twoSourceFixture(t)
	c := g.Clone()
	s := c.AddSource("spam.example.com")
	p := c.AddPage(s)
	c.AddLink(p, 0)
	c.AddLink(0, p)
	if g.NumPages() != 3 || g.NumSources() != 2 || g.NumLinks() != 3 {
		t.Error("mutating clone changed original shape")
	}
	if len(g.OutLinks(0)) != 2 {
		t.Error("mutating clone changed original adjacency")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestToGraphDeduplicates(t *testing.T) {
	g := twoSourceFixture(t)
	g.AddLink(0, 1) // parallel link
	ig := g.ToGraph()
	if ig.NumEdges() != 3 {
		t.Errorf("edges = %d, want 3 after dedup", ig.NumEdges())
	}
	if !ig.HasEdge(0, 2) {
		t.Error("edge 0->2 missing")
	}
}

func TestFromURLCorpus(t *testing.T) {
	urls := []string{
		"http://www.a.com/1",
		"http://www.a.com/2",
		"http://b.org/x",
		"not a url ::",
	}
	links := [][]int{{1, 2}, {2}, {}, {0}}
	g, err := FromURLCorpus(urls, links, urlutil.ByHost)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumPages() != 4 {
		t.Fatalf("pages = %d", g.NumPages())
	}
	if g.NumSources() != 3 { // www.a.com, b.org, (invalid)
		t.Fatalf("sources = %d, want 3", g.NumSources())
	}
	if g.SourceOf(0) != g.SourceOf(1) {
		t.Error("pages on the same host split across sources")
	}
	if g.SourceOf(0) == g.SourceOf(2) {
		t.Error("different hosts merged")
	}
	if g.SourceLabel(g.SourceOf(3)) != "(invalid)" {
		t.Errorf("invalid URL grouped under %q", g.SourceLabel(g.SourceOf(3)))
	}
}

func TestFromURLCorpusErrors(t *testing.T) {
	if _, err := FromURLCorpus([]string{"http://a.com"}, nil, urlutil.ByHost); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := FromURLCorpus([]string{"http://a.com"}, [][]int{{7}}, urlutil.ByHost); err == nil {
		t.Error("out-of-range link accepted")
	}
}

func TestFromURLCorpusDomainGranularity(t *testing.T) {
	urls := []string{"http://www.a.com/1", "http://blog.a.com/2"}
	g, err := FromURLCorpus(urls, [][]int{{}, {}}, urlutil.ByDomain)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumSources() != 1 {
		t.Errorf("sources = %d, want 1 under ByDomain", g.NumSources())
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	g := twoSourceFixture(t)
	g.numLinks = 99
	if err := g.Validate(); err == nil {
		t.Error("drifted link count accepted")
	}
}

// Package pagegraph implements the page-level view of the Web: pages with
// out-links, each page assigned to a source (host). It is the mutable
// substrate the spam-attack injectors operate on; the source-level view is
// derived from it by internal/source.
package pagegraph

import (
	"errors"
	"fmt"
	"slices"

	"sourcerank/internal/graph"
	"sourcerank/internal/urlutil"
)

// PageID identifies a page; SourceID identifies a source. Both are dense.
type (
	PageID   = int32
	SourceID = int32
)

// ErrUnknownID reports an out-of-range page or source identifier.
var ErrUnknownID = errors.New("pagegraph: unknown identifier")

// Graph is a mutable page-level web graph. Every page belongs to exactly
// one source. Links may be added at any time; parallel links are kept
// (they collapse when converting to transition matrices or graph.Graph).
//
// A graph ReadFrom produced keeps its rows in read form: the corpus's
// adjacency section as read, degree words included, in arena, and each
// row's degree word at start[p], so row p is arena[start[p]+1 :
// start[p+1]]. The first mutation of a row or of the page count
// materializes adj from it and clears start; nothing else does.
type Graph struct {
	sourceOf   []SourceID // page -> owning source
	adj        [][]PageID // page -> out-links (unsorted, possibly duplicated); nil in read form
	arena      []PageID   // read form: degree word, then out-links, per page
	start      []int64    // read form: page -> offset of its degree word in arena; nil otherwise
	sourceName []string   // source -> label (host)
	numLinks   int64
}

// New returns an empty page graph.
func New() *Graph { return &Graph{} }

// NumPages returns the number of pages.
func (g *Graph) NumPages() int { return len(g.sourceOf) }

// NumSources returns the number of sources.
func (g *Graph) NumSources() int { return len(g.sourceName) }

// NumLinks returns the number of links added (parallel links counted).
func (g *Graph) NumLinks() int64 { return g.numLinks }

// AddSource registers a new source with the given label (typically a host
// name) and returns its ID.
func (g *Graph) AddSource(label string) SourceID {
	id := SourceID(len(g.sourceName))
	g.sourceName = append(g.sourceName, label)
	return id
}

// SourceLabel returns the label of source s.
func (g *Graph) SourceLabel(s SourceID) string { return g.sourceName[s] }

// AddPage creates a page owned by source s and returns its ID.
// It panics if s is not a registered source.
func (g *Graph) AddPage(s SourceID) PageID {
	if s < 0 || int(s) >= len(g.sourceName) {
		panic(fmt.Sprintf("pagegraph: AddPage to unknown source %d", s))
	}
	if g.start != nil {
		g.materialize()
	}
	id := PageID(len(g.adj))
	g.adj = append(g.adj, nil)
	g.sourceOf = append(g.sourceOf, s)
	return id
}

// AddLink records the hyperlink (from, to). It panics on unknown IDs.
func (g *Graph) AddLink(from, to PageID) {
	if n := g.NumPages(); from < 0 || int(from) >= n || to < 0 || int(to) >= n {
		panic(fmt.Sprintf("pagegraph: AddLink(%d, %d) with %d pages", from, to, n))
	}
	if g.start != nil {
		g.materialize()
	}
	g.adj[from] = append(g.adj[from], to)
	g.numLinks++
}

// SetOutLinks replaces page p's entire out-link list. The streaming
// delta pipeline stages edits to a page's row on the side, validates the
// whole batch, and commits each touched row with one SetOutLinks call —
// so a rejected batch leaves the graph untouched. links is copied;
// parallel links are kept, matching AddLink semantics.
func (g *Graph) SetOutLinks(p PageID, links []PageID) error {
	n := g.NumPages()
	if p < 0 || int(p) >= n {
		return fmt.Errorf("%w: SetOutLinks(%d) with %d pages", ErrUnknownID, p, n)
	}
	for _, to := range links {
		if to < 0 || int(to) >= n {
			return fmt.Errorf("%w: SetOutLinks(%d) target %d with %d pages", ErrUnknownID, p, to, n)
		}
	}
	if g.start != nil {
		g.materialize()
	}
	g.numLinks += int64(len(links)) - int64(len(g.adj[p]))
	g.adj[p] = append(g.adj[p][:0:0], links...)
	return nil
}

// SourceOf returns the owning source of page p.
func (g *Graph) SourceOf(p PageID) SourceID { return g.sourceOf[p] }

// OutLinks returns page p's out-links. The slice aliases internal storage
// and must not be modified; its capacity is its length, so appending to
// it never reaches another row.
func (g *Graph) OutLinks(p PageID) []PageID {
	if g.start != nil {
		lo, hi := g.start[p]+1, g.start[p+1]
		return g.arena[lo:hi:hi]
	}
	return g.adj[p]
}

// rows returns every page's out-links: adj itself, or for a graph in
// read form one view of the arena per row.
func (g *Graph) rows() [][]PageID {
	if g.start == nil {
		return g.adj
	}
	rows := make([][]PageID, g.NumPages())
	for p := range rows {
		rows[p] = g.OutLinks(PageID(p))
	}
	return rows
}

// materialize turns a graph in read form into the mutable one, whose
// rows start out as the arena views OutLinks returned. The mutators call
// it, behind their own check so that the mutable form pays no call.
func (g *Graph) materialize() {
	g.adj, g.arena, g.start = g.rows(), nil, nil
}

// PagesOf returns the IDs of all pages belonging to source s, in
// increasing order.
func (g *Graph) PagesOf(s SourceID) []PageID {
	var pages []PageID
	for p, owner := range g.sourceOf {
		if owner == s {
			pages = append(pages, PageID(p))
		}
	}
	return pages
}

// PageCounts returns the number of pages per source.
func (g *Graph) PageCounts() []int {
	counts := make([]int, g.NumSources())
	for _, s := range g.sourceOf {
		counts[s]++
	}
	return counts
}

// Clone returns a deep copy of the graph. Spam injectors clone the base
// corpus once per scenario so cases stay independent. A graph in read
// form is cloned in read form: one copy of the arena and one of the
// starts.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		sourceOf:   append([]SourceID(nil), g.sourceOf...),
		sourceName: append([]string(nil), g.sourceName...),
		numLinks:   g.numLinks,
	}
	if g.start != nil {
		c.arena, c.start = slices.Clone(g.arena), slices.Clone(g.start)
		return c
	}
	c.adj = make([][]PageID, len(g.adj))
	for i, row := range g.adj {
		if len(row) > 0 {
			c.adj[i] = append([]PageID(nil), row...)
		}
	}
	return c
}

// ToGraph snapshots the page graph as an immutable graph.Graph
// (deduplicated, sorted adjacency).
func (g *Graph) ToGraph() *graph.Graph { return graph.FromAdjacency(g.rows()) }

// Validate checks cross-structure invariants.
func (g *Graph) Validate() error {
	n := g.NumPages()
	if g.start != nil {
		if len(g.start) != n+1 {
			return fmt.Errorf("pagegraph: %d row starts for %d pages", len(g.start), n)
		}
	} else if len(g.adj) != n {
		return fmt.Errorf("pagegraph: sourceOf length %d != adj length %d", n, len(g.adj))
	}
	for p, s := range g.sourceOf {
		if s < 0 || int(s) >= len(g.sourceName) {
			return fmt.Errorf("pagegraph: page %d has unknown source %d", p, s)
		}
	}
	var links int64
	for u := range n {
		row := g.OutLinks(PageID(u))
		links += int64(len(row))
		for _, v := range row {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("pagegraph: page %d links to unknown page %d", u, v)
			}
		}
	}
	if links != g.numLinks {
		return fmt.Errorf("pagegraph: link count drifted: counted %d, recorded %d", links, g.numLinks)
	}
	return nil
}

// FromURLCorpus builds a page graph from a URL-labeled corpus: urls[i] is
// page i's URL and links[i] its out-links as indices into urls. Pages are
// grouped into sources at the given granularity. URLs that fail host
// extraction are grouped under a single "(invalid)" source rather than
// dropped, so page indices stay aligned with the caller's corpus.
func FromURLCorpus(urls []string, links [][]int, gran urlutil.Granularity) (*Graph, error) {
	if len(urls) != len(links) {
		return nil, fmt.Errorf("pagegraph: %d urls but %d link rows", len(urls), len(links))
	}
	g := New()
	sourceIDs := map[string]SourceID{}
	lookup := func(key string) SourceID {
		if id, ok := sourceIDs[key]; ok {
			return id
		}
		id := g.AddSource(key)
		sourceIDs[key] = id
		return id
	}
	for _, raw := range urls {
		key, err := urlutil.SourceKey(raw, gran)
		if err != nil {
			key = "(invalid)"
		}
		g.AddPage(lookup(key))
	}
	for u, row := range links {
		for _, v := range row {
			if v < 0 || v >= len(urls) {
				return nil, fmt.Errorf("pagegraph: page %d links to out-of-range index %d", u, v)
			}
			g.AddLink(PageID(u), PageID(v))
		}
	}
	return g, nil
}

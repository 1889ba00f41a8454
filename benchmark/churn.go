package main

import "math/rand"

// churn generates crawler-shaped delta batches against the live page
// graph of a pipeline. The three classes differ in what they do to the
// source-consensus matrix, because that decides which stages a refresh
// can skip:
//
//   - recrawl: content touches and re-adds of links the page already
//     has. No page's set of target sources changes, so the consensus
//     matrix is unchanged and every solve is skipped.
//   - drift: a sibling page starts linking where its source already
//     links. Counts inside existing cells grow, no cell appears or
//     vanishes, so the sparsity (the operand of PageRank, TrustRank and
//     the proximity walk) is unchanged and only SRSR re-solves.
//   - rewire: a page drops one link and gains another. Cells appear and
//     vanish; every solve runs, warm.
//
// No class adds pages or sources, so page counts and the TrustRank seed
// set stay fixed and the per-source page index below stays valid.
type churn struct {
	pg       *pageGraph
	rng      *rand.Rand
	bySource [][]pageID
}

var churnClasses = []string{"recrawl", "drift", "rewire"}

func newChurn(pg *pageGraph, seed uint64) *churn {
	c := &churn{pg: pg, rng: rand.New(rand.NewSource(int64(seed)*982451653 + 11)), bySource: make([][]pageID, numSources(pg))}
	for p := 0; p < numPages(pg); p++ {
		s := sourceOf(pg, pageID(p))
		c.bySource[s] = append(c.bySource[s], pageID(p))
	}
	return c
}

// batch makes one batch of the class touching about links links.
func (c *churn) batch(class string, links int) []delta {
	switch class {
	case "recrawl":
		return c.recrawl(links)
	case "drift":
		return c.drift(links)
	}
	return c.rewire(links)
}

// linkedPage draws a page that has at least one out-link.
func (c *churn) linkedPage() (pageID, []pageID, bool) {
	for tries := 0; tries < 16; tries++ {
		p := pageID(c.rng.Intn(numPages(c.pg)))
		if out := outLinks(c.pg, p); len(out) > 0 {
			return p, out, true
		}
	}
	return 0, nil, false
}

func (c *churn) recrawl(links int) []delta {
	ds := make([]delta, 0, links)
	for i := 0; i < links; i++ {
		if c.rng.Intn(10) == 0 {
			ds = append(ds, touchPage(pageID(c.rng.Intn(numPages(c.pg)))))
			continue
		}
		if p, out, ok := c.linkedPage(); ok {
			ds = append(ds, addEdge(p, out[c.rng.Intn(len(out))]))
		}
	}
	return ds
}

func (c *churn) drift(links int) []delta {
	ds := make([]delta, 0, links)
	for i := 0; i < links; i++ {
	tries:
		for tries := 0; tries < 16; tries++ {
			p, out, ok := c.linkedPage()
			if !ok {
				break
			}
			tgt := out[c.rng.Intn(len(out))]
			tgtSrc := sourceOf(c.pg, tgt)
			// A sibling of p that does not yet link into tgt's source:
			// its new link bumps the count of a cell p already holds.
			sib := c.bySource[sourceOf(c.pg, p)]
			p2 := sib[c.rng.Intn(len(sib))]
			for _, q := range outLinks(c.pg, p2) {
				if sourceOf(c.pg, q) == tgtSrc {
					continue tries
				}
			}
			ds = append(ds, addEdge(p2, tgt))
			break
		}
	}
	return ds
}

func (c *churn) rewire(links int) []delta {
	ds := make([]delta, 0, 2*links)
	// One removal per page per batch: a batch that removes a link its
	// page no longer has is rejected whole.
	removedFrom := make(map[pageID]bool, links)
	for i := 0; i < links; i++ {
		for tries := 0; tries < 16; tries++ {
			p, out, ok := c.linkedPage()
			if !ok || removedFrom[p] {
				continue
			}
			removedFrom[p] = true
			ds = append(ds, removeEdge(p, out[c.rng.Intn(len(out))]),
				addEdge(p, pageID(c.rng.Intn(numPages(c.pg)))))
			break
		}
	}
	return ds
}

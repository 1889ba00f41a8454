// Quickstart: build a tiny Web corpus by hand, run the full
// Spam-Resilient SourceRank pipeline, and print the source ranking.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sort"

	"sourcerank/internal/core"
	"sourcerank/internal/pagegraph"
	"sourcerank/internal/source"
)

func main() {
	// A miniature Web: six legitimate sites in a citation ring and a
	// two-source spam operation.
	g := pagegraph.New()

	legitNames := []string{
		"news.example.org", "blog.example.net", "wiki.example.com",
		"shop.example.io", "docs.example.dev", "forum.example.co",
	}
	legit := make([]pagegraph.SourceID, len(legitNames))
	pages := map[pagegraph.SourceID][]pagegraph.PageID{}
	for i, name := range legitNames {
		legit[i] = g.AddSource(name)
		for p := 0; p < 4; p++ {
			pages[legit[i]] = append(pages[legit[i]], g.AddPage(legit[i]))
		}
	}
	spamA := g.AddSource("cheap-pills.biz")
	spamB := g.AddSource("casino-wins.biz")
	for _, s := range []pagegraph.SourceID{spamA, spamB} {
		for p := 0; p < 6; p++ {
			pages[s] = append(pages[s], g.AddPage(s))
		}
	}

	// Legitimate citations: each site links to the next two in the ring.
	n := len(legit)
	for i := range legit {
		g.AddLink(pages[legit[i]][0], pages[legit[(i+1)%n]][0])
		g.AddLink(pages[legit[i]][1], pages[legit[(i+2)%n]][0])
	}

	// The spam operation: intra-source link farms plus a link exchange
	// between the two spam sources, and one hijacked link planted on a
	// blog comment page.
	for i := 0; i < 6; i++ {
		g.AddLink(pages[spamA][i], pages[spamA][(i+1)%6]) // farm
		g.AddLink(pages[spamB][i], pages[spamB][(i+1)%6]) // farm
		g.AddLink(pages[spamA][i], pages[spamB][i])       // exchange
		g.AddLink(pages[spamB][i], pages[spamA][i])       // exchange
	}
	g.AddLink(pages[legit[1]][3], pages[spamA][0]) // hijacked comment link

	// Group pages into sources, then run the paper's pipeline: only
	// cheap-pills.biz is labeled; the proximity walk discovers
	// casino-wins.biz through the exchange.
	sg, err := source.Build(g, source.Options{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.Pipeline(sg, core.PipelineConfig{
		Config:    core.Config{Alpha: 0.85},
		SpamSeeds: []int32{int32(spamA)},
		TopK:      2,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Spam-Resilient SourceRank:")
	order := make([]int, len(res.Scores))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return res.Scores[order[a]] > res.Scores[order[b]] })
	for rank, s := range order {
		throttled := ""
		if res.Kappa[s] == 1 {
			throttled = "  [throttled]"
		}
		fmt.Printf("%d. %-22s score %.4f  κ=%.2f%s\n",
			rank+1, sg.Labels[s], res.Scores[s], res.Kappa[s], throttled)
	}
	fmt.Printf("\nsolver: %d iterations (residual %.1e)\n",
		res.Stats.Iterations, res.Stats.Residual)
	if res.Kappa[spamB] == 1 {
		fmt.Println("\ncasino-wins.biz was throttled without ever being labeled: spam")
		fmt.Println("proximity propagated from cheap-pills.biz through the link exchange.")
	}
}

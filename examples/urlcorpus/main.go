// Urlcorpus: rank a corpus given as plain URLs and links, the way a real
// crawl would arrive. Pages are grouped into sources by host (the paper's
// §6.1 methodology) and ranked with PageRank, baseline SourceRank, and
// Spam-Resilient SourceRank side by side.
//
//	go run ./examples/urlcorpus
package main

import (
	"fmt"
	"log"

	"sourcerank/internal/core"
	"sourcerank/internal/pagegraph"
	"sourcerank/internal/rank"
	"sourcerank/internal/source"
	"sourcerank/internal/urlutil"
)

func main() {
	// A hand-written crawl snapshot. Indices into urls are the link
	// targets. discount-watches.biz hosts a farm that targets its own
	// landing page and exchanges links with luxury-replicas.biz.
	urls := []string{
		"http://www.gazette.com/frontpage",     // 0
		"http://www.gazette.com/politics",      // 1
		"http://encyclo.org/go",                // 2
		"http://encyclo.org/lang/go",           // 3
		"http://devblog.io/posts/1",            // 4
		"http://discount-watches.biz/",         // 5 spam landing page
		"http://discount-watches.biz/farm/a",   // 6
		"http://discount-watches.biz/farm/b",   // 7
		"http://discount-watches.biz/farm/c",   // 8
		"http://luxury-replicas.biz/",          // 9 colluding site
		"http://fan-blog.net/guestbook/hacked", // 10 hijacked page
		"http://luxury-replicas.biz/catalog",   // 11 colluder's second page
	}
	links := [][]int{
		{1, 2},  // frontpage -> politics, encyclo
		{0, 4},  // politics -> frontpage, devblog
		{3, 0},  // encyclo -> own article, gazette
		{2},     // article -> encyclo root
		{2, 3},  // devblog -> encyclo
		{9},     // spam landing -> colluder
		{5},     // farm pages all point at the landing page
		{5},     //
		{5},     //
		{5, 11}, // colluder -> spam landing + own catalog
		{5},     // hijacked guestbook page -> spam landing
		{5, 9},  // catalog -> spam landing + colluder home
	}

	pg, err := pagegraph.FromURLCorpus(urls, links, urlutil.ByHost)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpus: %d pages over %d sources\n\n", pg.NumPages(), pg.NumSources())

	// Page-level PageRank.
	pr, err := rank.PageRank(pg.ToGraph(), rank.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("PageRank (page level) — note the spam landing page's rank:")
	for i, u := range urls {
		fmt.Printf("  %.4f  %s\n", pr.Scores[i], u)
	}

	// Find the spam source ID for seeding.
	var spamSrc int32 = -1
	for s := 0; s < pg.NumSources(); s++ {
		if pg.SourceLabel(int32(s)) == "discount-watches.biz" {
			spamSrc = int32(s)
		}
	}
	if spamSrc < 0 {
		log.Fatal("spam source not found")
	}

	sg, err := source.Build(pg, source.Options{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.Pipeline(sg, core.PipelineConfig{
		SpamSeeds: []int32{spamSrc},
		TopK:      2,
	})
	if err != nil {
		log.Fatal(err)
	}
	base, err := core.BaselineSourceRank(sg, core.Config{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nSource level (baseline SourceRank vs Spam-Resilient SourceRank):")
	fmt.Printf("  %-24s %-10s %-10s %s\n", "source", "baseline", "SRSR", "κ")
	for s := 0; s < sg.NumSources(); s++ {
		fmt.Printf("  %-24s %-10.4f %-10.4f %.0f\n",
			sg.Labels[s], base.Scores[s], res.Scores[s], res.Kappa[s])
	}
	for s := 0; s < sg.NumSources(); s++ {
		if res.Kappa[s] != 1 || int32(s) == spamSrc {
			continue
		}
		switch sg.Labels[s] {
		case "luxury-replicas.biz":
			fmt.Println("\nluxury-replicas.biz was throttled purely by proximity (it trades")
			fmt.Println("links with the labeled spam site).")
		case "fan-blog.net":
			fmt.Println("\nfan-blog.net was throttled too: its hijacked guestbook links to")
			fmt.Println("known spam, and §5 deliberately throttles such feeder sources.")
		}
	}
}

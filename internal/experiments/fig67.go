package experiments

import (
	"errors"
	"fmt"

	"sourcerank/internal/core"
	"sourcerank/internal/gen"
	"sourcerank/internal/pagegraph"
	"sourcerank/internal/rank"
	"sourcerank/internal/rankeval"
	"sourcerank/internal/source"
	"sourcerank/internal/spam"
)

// attackKind distinguishes the Figure 6 (intra-source) and Figure 7
// (inter-source) manipulation experiments.
type attackKind int

const (
	intraSource attackKind = iota
	interSource
)

// Fig6 regenerates Figure 6: the average ranking-percentile increase of
// the target page (under PageRank) versus the target source (under SRSR)
// when a spammer adds 1 / 10 / 100 / 1000 pages *within* the target's own
// source, each linking to the target page. Targets are sampled from the
// bottom 50% of un-throttled sources, the paper's worst case for SRSR.
func Fig6(cfg Config) (*Table, error) {
	return manipulationExperiment(cfg, intraSource, "fig6",
		"Intra-source manipulation: avg percentile increase (cases A–D)",
		"paper (WB2001, case C): PageRank +80 percentile points vs SRSR +4; case D: ~70 vs ~20")
}

// Fig7 regenerates Figure 7: as Figure 6, but the spam pages are added to
// a separate colluding source (also sampled from the bottom 50%), each
// linking across sources to the target page.
func Fig7(cfg Config) (*Table, error) {
	return manipulationExperiment(cfg, interSource, "fig7",
		"Inter-source manipulation: avg percentile increase (cases A–D)",
		"paper: PageRank again jumps dramatically; SRSR is impacted far less, with no extra throttling information")
}

func manipulationExperiment(cfg Config, kind attackKind, id, title, paperNote string) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"dataset", "case", "pages", "PageRank Δpct (page)", "SRSR Δpct (source)"},
		Notes:   []string{paperNote},
	}
	for _, preset := range cfg.Datasets {
		c, err := buildCorpus(preset, cfg)
		if err != nil {
			return nil, err
		}
		rows, err := runManipulation(c, cfg, kind)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s on %s: %w", id, preset, err)
		}
		for i, r := range rows {
			t.AddRow(string(preset), spam.Cases[i].Label,
				fmt.Sprintf("%d", spam.Cases[i].Pages),
				f1(r.prGain), f1(r.srGain))
		}
	}
	return t, nil
}

type caseResult struct {
	prGain float64 // mean percentile increase of the target page (PageRank)
	srGain float64 // mean percentile increase of the target source (SRSR)
}

// pickTargets samples cfg.Targets sources from the bottom half of the
// base SRSR ranking, restricted to un-throttled sources that own at
// least one page ("essentially in the clear", §6.3).
func pickTargets(c *corpus, cfg Config, pipe *core.PipelineResult, exclude map[pagegraph.SourceID]bool) ([]pagegraph.SourceID, error) {
	bottom := rankeval.BottomHalf(pipe.Scores)
	eligible := make([]pagegraph.SourceID, 0, len(bottom))
	counts := c.ds.Pages.PageCounts()
	spamSet := map[int32]bool{}
	for _, s := range c.ds.SpamSources {
		spamSet[s] = true
	}
	for _, s := range bottom {
		if pipe.Kappa[s] == 0 && counts[s] > 0 && !spamSet[s] && !exclude[s] {
			eligible = append(eligible, s)
		}
	}
	if len(eligible) < cfg.Targets {
		return nil, errors.New("not enough eligible bottom-half sources")
	}
	rng := gen.NewRNG(cfg.Seed ^ 0x7A26E7)
	perm := rng.Perm(len(eligible))
	targets := make([]pagegraph.SourceID, cfg.Targets)
	for i := 0; i < cfg.Targets; i++ {
		targets[i] = eligible[perm[i]]
	}
	return targets, nil
}

func runManipulation(c *corpus, cfg Config, kind attackKind) ([]caseResult, error) {
	pipe, _, _, err := c.basePipeline(cfg)
	if err != nil {
		return nil, err
	}
	basePR, err := rank.PageRank(c.ds.Pages.ToGraph(), rank.Options{Alpha: cfg.Alpha, Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}

	targets, err := pickTargets(c, cfg, pipe, nil)
	if err != nil {
		return nil, err
	}
	// Inter-source attacks also need a disjoint colluding source per
	// target, sampled from the same eligible pool.
	var colluders []pagegraph.SourceID
	if kind == interSource {
		used := map[pagegraph.SourceID]bool{}
		for _, s := range targets {
			used[s] = true
		}
		all, err := pickTargetsN(c, cfg, pipe, used, len(targets))
		if err != nil {
			return nil, err
		}
		colluders = all
	}

	rng := gen.NewRNG(cfg.Seed ^ 0x9A6E)
	results := make([]caseResult, len(spam.Cases))
	for ti, src := range targets {
		pages := c.ds.Pages.PagesOf(src)
		targetPage := pages[rng.Intn(len(pages))]

		basePagePct, err := rankeval.Percentile(basePR.Scores, int(targetPage))
		if err != nil {
			return nil, err
		}
		baseSrcPct, err := rankeval.Percentile(pipe.Scores, int(src))
		if err != nil {
			return nil, err
		}

		for ci, mc := range spam.Cases {
			spammed := c.ds.Pages.Clone()
			switch kind {
			case intraSource:
				if _, err := spam.InjectIntraSource(spammed, targetPage, mc.Pages); err != nil {
					return nil, err
				}
			case interSource:
				if _, err := spam.InjectInterSource(spammed, targetPage, colluders[ti], mc.Pages); err != nil {
					return nil, err
				}
			}
			// Page-level PageRank on the spammed graph.
			pr, err := rank.PageRank(spammed.ToGraph(), rank.Options{Alpha: cfg.Alpha, Workers: cfg.Workers})
			if err != nil {
				return nil, err
			}
			pagePct, err := rankeval.Percentile(pr.Scores, int(targetPage))
			if err != nil {
				return nil, err
			}
			// Source-level SRSR on the spammed graph with the SAME κ
			// (the source set is unchanged by page injection). The solve
			// warm-starts from the unattacked scores: the perturbation is
			// local, so convergence takes a fraction of the cold-start
			// iterations.
			sg, err := source.Build(spammed, source.Options{})
			if err != nil {
				return nil, err
			}
			sr, err := core.Rank(sg, pipe.Kappa, core.Config{Alpha: cfg.Alpha, Workers: cfg.Workers, X0: pipe.Scores})
			if err != nil {
				return nil, err
			}
			srcPct, err := rankeval.Percentile(sr.Scores, int(src))
			if err != nil {
				return nil, err
			}
			results[ci].prGain += (pagePct - basePagePct) / float64(len(targets))
			results[ci].srGain += (srcPct - baseSrcPct) / float64(len(targets))
		}
	}
	return results, nil
}

// pickTargetsN is pickTargets with an explicit count and exclusion set.
func pickTargetsN(c *corpus, cfg Config, pipe *core.PipelineResult, exclude map[pagegraph.SourceID]bool, n int) ([]pagegraph.SourceID, error) {
	saved := cfg.Targets
	cfg.Targets = n
	out, err := pickTargets(c, cfg, pipe, exclude)
	cfg.Targets = saved
	return out, err
}

package experiments

import (
	"fmt"

	"sourcerank/internal/analysis"
	"sourcerank/internal/core"
	"sourcerank/internal/gen"
	"sourcerank/internal/pagegraph"
	"sourcerank/internal/rank"
	"sourcerank/internal/rankeval"
	"sourcerank/internal/source"
	"sourcerank/internal/spam"
	"sourcerank/internal/throttle"
)

// ROI implements the paper's §8 future-work metric: the spammer's return
// on investment (SRSR influence gained per unit attack effort) for each
// §4 scenario as the throttling factor rises, plus the break-even κ at
// which scenario 3 stops paying.
func ROI(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	const numSources = 10000
	const tau = 100
	t := &Table{
		ID:      "roi",
		Title:   fmt.Sprintf("Spammer ROI by scenario and κ (τ=%d, |S|=%d, costs page/source/hijack = %.0f/%.0f/%.0f)", tau, numSources, analysis.DefaultCosts.PageCost, analysis.DefaultCosts.SourceCost, analysis.DefaultCosts.HijackCost),
		Columns: []string{"kappa", "scenario1 ROI", "scenario2 ROI", "scenario3 ROI"},
		Notes: []string{
			"§8: 'Our goal is to evaluate the relative impact on the value of a spammer's portfolio of sources due to link-based manipulation'",
		},
	}
	for _, kappa := range []float64{0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.99} {
		row := []string{f2(kappa)}
		for _, sc := range []analysis.Scenario{analysis.Scenario1, analysis.Scenario2, analysis.Scenario3} {
			roi, err := analysis.ScenarioROI(sc, cfg.Alpha, tau, kappa, numSources, analysis.DefaultCosts)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.4f", roi))
		}
		t.AddRow(row...)
	}
	roi0, err := analysis.ScenarioROI(analysis.Scenario3, cfg.Alpha, tau, 0, numSources, analysis.DefaultCosts)
	if err != nil {
		return nil, err
	}
	be, err := analysis.BreakEvenKappa(cfg.Alpha, tau, roi0/10, numSources, analysis.DefaultCosts)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, fmt.Sprintf("break-even κ where scenario 3 ROI drops to 10%% of its κ=0 value: %.3f", be))
	return t, nil
}

// Detection grades the §5 spam-proximity walk as a spam detector: ROC
// AUC and precision/recall at the paper's top-k cut, as a function of
// how much of the labeled spam is revealed as seeds.
func Detection(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	c, err := buildCorpus(gen.WB2001, cfg)
	if err != nil {
		return nil, err
	}
	allSpam := sortedCopy(c.ds.SpamSources)
	topK := throttle.DefaultTopK(c.sg.NumSources())
	t := &Table{
		ID:      "detection",
		Title:   fmt.Sprintf("Spam-proximity as a detector (WB2001-sim, %d spam, top-%d cut)", len(allSpam), topK),
		Columns: []string{"seed fraction", "seeds", "AUC", "precision@k", "recall@k (unlabeled)"},
		Notes: []string{
			"grades §5: how well does the inverse walk recover UNLABELED spam from a partial seed set",
		},
	}
	for _, frac := range []float64{0.02, 0.05, 0.097, 0.2, 0.5} {
		seeds := spamSeeds(c.ds, frac, cfg.Seed)
		prox, _, err := throttle.SpamProximity(c.sg.Structure(), seeds, throttle.ProximityOptions{Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		// Grade against the UNLABELED spam only: remove seeds from the
		// positive set so the detector isn't credited for its inputs.
		seedSet := map[int32]bool{}
		for _, s := range seeds {
			seedSet[s] = true
		}
		var unlabeled []int32
		for _, s := range allSpam {
			if !seedSet[s] {
				unlabeled = append(unlabeled, s)
			}
		}
		if len(unlabeled) == 0 {
			continue
		}
		auc, err := rankeval.AUC(prox, unlabeled)
		if err != nil {
			return nil, err
		}
		prec, err := rankeval.PrecisionAtK(prox, allSpam, topK)
		if err != nil {
			return nil, err
		}
		rec, err := rankeval.RecallAtK(prox, unlabeled, topK)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.3f", frac), fmt.Sprintf("%d", len(seeds)),
			fmt.Sprintf("%.3f", auc), fmt.Sprintf("%.3f", prec), fmt.Sprintf("%.3f", rec))
	}
	return t, nil
}

// Stability quantifies the §6.3 remark that PageRank "has typically been
// thought to provide fairly stable rankings [27]" yet collapses under
// adversarial manipulation: it compares the Kendall τ between the base
// ranking and (a) a randomly perturbed graph and (b) an adversarially
// attacked one, with the same number of added links.
func Stability(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	c, err := buildCorpus(gen.UK2002, cfg)
	if err != nil {
		return nil, err
	}
	pipe, _, _, err := c.basePipeline(cfg)
	if err != nil {
		return nil, err
	}
	basePR, err := rank.PageRank(c.ds.Pages.ToGraph(), rank.Options{Alpha: cfg.Alpha, Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	const addedLinks = 500
	rng := gen.NewRNG(cfg.Seed ^ 0x57AB)

	targets, err := pickTargets(c, cfg, pipe, nil)
	if err != nil {
		return nil, err
	}
	targetPages := c.ds.Pages.PagesOf(targets[0])
	targetPage := targetPages[len(targetPages)-1] // a leaf page, not the homepage

	// (a) Random perturbation: addedLinks random page links.
	random := c.ds.Pages.Clone()
	for i := 0; i < addedLinks; i++ {
		random.AddLink(int32(rng.Intn(random.NumPages())), int32(rng.Intn(random.NumPages())))
	}
	// (b) Adversarial: the same number of links, all pointed at one page
	// from injected farm pages.
	adversarial := c.ds.Pages.Clone()
	if _, err := spam.InjectIntraSource(adversarial, targetPage, addedLinks); err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "stability",
		Title:   fmt.Sprintf("PageRank stability under %d added links (UK2002-sim)", addedLinks),
		Columns: []string{"perturbation", "Kendall tau vs base", "target page Δpct"},
		Notes: []string{
			"§6.3 / Ng et al. [27]: PageRank is stable under random perturbation but not under adversarial manipulation",
		},
	}
	for _, cse := range []struct {
		label string
		pages *pagegraph.Graph
	}{
		{"random links", random},
		{"adversarial farm", adversarial},
	} {
		pr, err := rank.PageRank(cse.pages.ToGraph(), rank.Options{Alpha: cfg.Alpha, Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		// Kendall τ over the original page set (new pages are appended,
		// so the first len(base) entries align with the base graph).
		n := len(basePR.Scores)
		tau, err := rankeval.KendallTau(basePR.Scores, pr.Scores[:n])
		if err != nil {
			return nil, err
		}
		basePct, err := rankeval.Percentile(basePR.Scores, int(targetPage))
		if err != nil {
			return nil, err
		}
		pct, err := rankeval.Percentile(pr.Scores, int(targetPage))
		if err != nil {
			return nil, err
		}
		t.AddRow(cse.label, fmt.Sprintf("%.4f", tau), f1(pct-basePct))
	}
	return t, nil
}

// AblationWarmStart measures incremental recomputation: after a case-C
// attack, re-solving SRSR cold versus warm-started from the unattacked
// vector.
func AblationWarmStart(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	c, err := buildCorpus(gen.UK2002, cfg)
	if err != nil {
		return nil, err
	}
	pipe, _, _, err := c.basePipeline(cfg)
	if err != nil {
		return nil, err
	}
	targets, err := pickTargets(c, cfg, pipe, nil)
	if err != nil {
		return nil, err
	}
	attacked := c.ds.Pages.Clone()
	tp := attacked.PagesOf(targets[0])[0]
	if _, err := spam.InjectIntraSource(attacked, tp, 100); err != nil {
		return nil, err
	}
	sg, err := source.Build(attacked, source.Options{})
	if err != nil {
		return nil, err
	}
	cold, err := core.Rank(sg, pipe.Kappa, core.Config{Alpha: cfg.Alpha, Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	warm, err := core.Rank(sg, pipe.Kappa, core.Config{Alpha: cfg.Alpha, Workers: cfg.Workers, X0: pipe.Scores})
	if err != nil {
		return nil, err
	}
	tau, err := rankeval.KendallTau(cold.Scores, warm.Scores)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation-warmstart",
		Title:   "Incremental recomputation after a case-C attack (UK2002-sim)",
		Columns: []string{"start", "iterations", "residual", "converged"},
	}
	t.AddRow("cold (uniform)", fmt.Sprintf("%d", cold.Stats.Iterations), fmt.Sprintf("%.2e", cold.Stats.Residual), fmt.Sprintf("%v", cold.Stats.Converged))
	t.AddRow("warm (previous σ)", fmt.Sprintf("%d", warm.Stats.Iterations), fmt.Sprintf("%.2e", warm.Stats.Residual), fmt.Sprintf("%v", warm.Stats.Converged))
	t.Notes = append(t.Notes, fmt.Sprintf("Kendall tau between the two solutions: %.6f", tau))
	return t, nil
}

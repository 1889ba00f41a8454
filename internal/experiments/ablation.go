package experiments

import (
	"fmt"

	"sourcerank/internal/core"
	"sourcerank/internal/gen"
	"sourcerank/internal/linalg"
	"sourcerank/internal/pagegraph"
	"sourcerank/internal/rankeval"
	"sourcerank/internal/source"
	"sourcerank/internal/throttle"
)

// AblationConsensus isolates the paper's §3.2 claim: source-consensus
// edge weighting resists hijacking better than uniform source edges.
// A spammer hijacks an increasing number of pages inside one large
// legitimate source; the table reports the resulting edge weight from the
// victim source to the spam source under both weightings.
func AblationConsensus(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:      "ablation-consensus",
		Title:   "Hijack resistance: victim→spam edge weight, consensus vs uniform",
		Columns: []string{"hijacked pages", "victim pages", "consensus w", "uniform w"},
		Notes: []string{
			"§3.2: 'Hijacking a few pages in source i will have little impact over the source-level influence flow'",
		},
	}
	const victimPages = 200
	for _, hijacked := range []int{1, 5, 20, 50, 100, 200} {
		pg := buildHijackFixture(victimPages, hijacked)
		cw, uw, err := victimSpamWeights(pg)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", hijacked), fmt.Sprintf("%d", victimPages), f2(cw), f2(uw))
	}
	return t, nil
}

// buildHijackFixture constructs a victim source with n pages all linking
// to a legitimate neighbor, of which the first `hijacked` also carry a
// spam link.
func buildHijackFixture(n, hijacked int) *pgFixture {
	f := &pgFixture{g: pagegraph.New()}
	victim := f.g.AddSource("victim.com")
	legit := f.g.AddSource("legit.com")
	spamSrc := f.g.AddSource("spam.biz")
	lp := f.g.AddPage(legit)
	sp := f.g.AddPage(spamSrc)
	for i := 0; i < n; i++ {
		p := f.g.AddPage(victim)
		f.g.AddLink(p, lp)
		if i < hijacked {
			f.g.AddLink(p, sp)
		}
	}
	f.victim, f.spam = victim, spamSrc
	return f
}

func victimSpamWeights(f *pgFixture) (consensus, uniform float64, err error) {
	cg, err := source.Build(f.g, source.Options{})
	if err != nil {
		return 0, 0, err
	}
	ug, err := source.Build(f.g, source.Options{Weighting: source.Uniform})
	if err != nil {
		return 0, 0, err
	}
	return cg.T.At(int(f.victim), int(f.spam)), ug.T.At(int(f.victim), int(f.spam)), nil
}

// pgFixture wraps a page graph plus the IDs the ablation reads back.
type pgFixture struct {
	g            *pagegraph.Graph
	victim, spam pagegraph.SourceID
}

// AblationThrottle compares κ-assignment policies on the Figure 5 setup:
// no throttling, the paper's binary top-k, and the graded extension. The
// metric is the mean ranking percentile of all labeled spam sources
// (lower = spam pushed further down = better).
func AblationThrottle(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	preset := gen.WB2001
	c, err := buildCorpus(preset, cfg)
	if err != nil {
		return nil, err
	}
	_, seeds, topK, err := c.basePipeline(cfg)
	if err != nil {
		return nil, err
	}
	prox, _, err := throttle.SpamProximity(c.sg.Structure(), seeds, throttle.ProximityOptions{Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	allSpam := sortedCopy(c.ds.SpamSources)
	run := func(kappa []float64) (float64, error) {
		res, err := core.Rank(c.sg, kappa, core.Config{Alpha: cfg.Alpha, Workers: cfg.Workers})
		if err != nil {
			return 0, err
		}
		return rankeval.MeanPercentileOf(res.Scores, allSpam)
	}
	zero := make([]float64, c.sg.NumSources())
	noThrottle, err := run(zero)
	if err != nil {
		return nil, err
	}
	binary, err := run(throttle.TopK(prox, topK))
	if err != nil {
		return nil, err
	}
	graded, err := run(throttle.Graded(prox, topK, 0.8))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation-throttle",
		Title:   fmt.Sprintf("κ-assignment policies on %s-sim: mean spam percentile (lower is better)", preset),
		Columns: []string{"policy", "mean spam percentile"},
		Notes: []string{
			"binary top-k is the paper's §5 heuristic; graded is the extension it leaves open",
		},
	}
	t.AddRow("no throttling (baseline)", f1(noThrottle))
	t.AddRow(fmt.Sprintf("binary top-%d (paper)", topK), f1(binary))
	t.AddRow(fmt.Sprintf("graded top-%d, max 0.8", topK), f1(graded))
	return t, nil
}

// AblationSolver compares the two solver paths of Eq. 3 — power method
// versus Jacobi on the linear form — in iterations and agreement. The
// throttled κ makes core.Rank run Jacobi; the power arm iterates the
// damped chain over the transpose of throttle.Apply's T″ itself.
func AblationSolver(cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	c, err := buildCorpus(gen.UK2002, cfg)
	if err != nil {
		return nil, err
	}
	pipe, _, _, err := c.basePipeline(cfg)
	if err != nil {
		return nil, err
	}
	tpp, err := throttle.Apply(c.sg.T, pipe.Kappa)
	if err != nil {
		return nil, err
	}
	pw, pwStats, err := linalg.PowerMethodT(tpp.TransposeParallel(cfg.Workers), cfg.Alpha,
		linalg.NewUniformVector(c.sg.NumSources()), nil, linalg.SolverOptions{Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	jc, err := core.Rank(c.sg, pipe.Kappa, core.Config{Alpha: cfg.Alpha, Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	tau, err := rankeval.KendallTau(pw, jc.Scores)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "ablation-solver",
		Title:   "Power method vs Jacobi on the SRSR equation (UK2002-sim)",
		Columns: []string{"solver", "iterations", "residual", "converged"},
	}
	t.AddRow("power", fmt.Sprintf("%d", pwStats.Iterations), fmt.Sprintf("%.2e", pwStats.Residual), fmt.Sprintf("%v", pwStats.Converged))
	t.AddRow("jacobi", fmt.Sprintf("%d", jc.Stats.Iterations), fmt.Sprintf("%.2e", jc.Stats.Residual), fmt.Sprintf("%v", jc.Stats.Converged))
	t.Notes = append(t.Notes, fmt.Sprintf("Kendall tau between the two rankings: %.6f", tau))
	return t, nil
}

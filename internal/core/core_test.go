package core

import (
	"math"
	"testing"

	"sourcerank/internal/linalg"
	"sourcerank/internal/pagegraph"
	"sourcerank/internal/source"
)

// corpus builds a page graph with a legitimate cluster (sources 0..3
// linking forward in a chain plus cross links) and a spam cluster
// (sources 4,5 forming a link exchange that also targets source 3's
// pages... no: targets source 0). Page layout: 2 pages per source.
func corpus(t *testing.T) *pagegraph.Graph {
	t.Helper()
	g := pagegraph.New()
	pages := make([][]pagegraph.PageID, 6)
	for s := 0; s < 6; s++ {
		id := g.AddSource("s" + string(rune('a'+s)) + ".com")
		pages[s] = []pagegraph.PageID{g.AddPage(id), g.AddPage(id)}
	}
	link := func(a, b pagegraph.SourceID) {
		g.AddLink(pages[a][0], pages[b][0])
		g.AddLink(pages[a][1], pages[b][1])
	}
	// Legitimate chain with back edges.
	link(0, 1)
	link(1, 2)
	link(2, 3)
	link(3, 0)
	link(1, 0)
	// Spam exchange: 4 <-> 5 plus both target source 0.
	link(4, 5)
	link(5, 4)
	link(4, 0)
	link(5, 0)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func buildSG(t *testing.T, g *pagegraph.Graph) *source.Graph {
	t.Helper()
	sg, err := source.Build(g, source.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sg
}

func TestRankZeroKappaIsDistribution(t *testing.T) {
	sg := buildSG(t, corpus(t))
	res, err := Rank(sg, make([]float64, sg.NumSources()), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatalf("not converged: %+v", res.Stats)
	}
	if math.Abs(res.Scores.Norm1()-1) > 1e-8 {
		t.Errorf("sum = %v, want 1", res.Scores.Norm1())
	}
	for i, s := range res.Scores {
		if s < 0 {
			t.Errorf("negative score at %d: %v", i, s)
		}
	}
}

func TestRankKappaValidation(t *testing.T) {
	sg := buildSG(t, corpus(t))
	if _, err := Rank(sg, []float64{0.5}, Config{}); err == nil {
		t.Error("short kappa accepted")
	}
	if _, err := Rank(nil, nil, Config{}); err == nil {
		t.Error("nil source graph accepted")
	}
}

func TestThrottlingSpamReducesItsInfluence(t *testing.T) {
	sg := buildSG(t, corpus(t))
	zero := make([]float64, sg.NumSources())
	base, err := Rank(sg, zero, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Fully throttle the spam exchange (sources 4, 5).
	kappa := make([]float64, sg.NumSources())
	kappa[4], kappa[5] = 1, 1
	thr, err := Rank(sg, kappa, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Source 0 was the spam target: its relative score must drop once the
	// spam sources stop exporting influence.
	if thr.Scores[0] >= base.Scores[0] {
		t.Errorf("spam target score did not drop: base %v, throttled %v",
			base.Scores[0], thr.Scores[0])
	}
}

func TestJacobiMatchesPower(t *testing.T) {
	sg := buildSG(t, corpus(t))
	kappa := make([]float64, sg.NumSources())
	kappa[4] = 0.7
	jc, err := Rank(sg, kappa, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if jc.op.bias == nil {
		t.Fatal("κ₄ = 0.7 did not solve by Jacobi")
	}
	pw, _ := powerOracle(t, sg, kappa)
	if d := linalg.L2Distance(pw, jc.Scores); d > 1e-8 {
		t.Errorf("power vs jacobi differ by %g", d)
	}
}

func TestBaselineSourceRank(t *testing.T) {
	sg := buildSG(t, corpus(t))
	res, err := BaselineSourceRank(sg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range res.Kappa {
		if k != 0 {
			t.Fatal("baseline applied throttling")
		}
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	res, err := Pipeline(buildSG(t, corpus(t)), PipelineConfig{
		SpamSeeds: []int32{4}, // only one of the two spam sources labeled
		TopK:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged || !res.ProximityStats.Converged {
		t.Fatalf("solver(s) did not converge: %+v %+v", res.Stats, res.ProximityStats)
	}
	// The proximity walk must throttle both spam sources: 5 links to the
	// labeled seed 4, so it is "close" to spam.
	if res.Kappa[4] != 1 {
		t.Errorf("labeled spam source not throttled: kappa = %v", res.Kappa)
	}
	if res.Kappa[5] != 1 {
		t.Errorf("spam neighbor not throttled: kappa = %v", res.Kappa)
	}
	if math.Abs(res.Scores.Norm1()-1) > 1e-8 {
		t.Errorf("scores sum to %v", res.Scores.Norm1())
	}
}

func TestPipelineRequiresSeeds(t *testing.T) {
	if _, err := Pipeline(buildSG(t, corpus(t)), PipelineConfig{}); err == nil {
		t.Error("pipeline without seeds accepted")
	}
}

func TestFullThrottleCapsOneTimeGain(t *testing.T) {
	// Paper §4.1: for a fully-throttled source (κ=1) tuning the self-edge
	// gives no gain at all; its SRSR equals the teleport floor because no
	// one else links to it.
	g := pagegraph.New()
	isolated := g.AddSource("isolated.com")
	other := g.AddSource("other.com")
	p := g.AddPage(isolated)
	q := g.AddPage(other)
	g.AddLink(p, p) // pure self-link
	g.AddLink(q, q)
	sg := buildSG(t, g)
	res, err := Rank(sg, []float64{1, 1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Both sources are symmetric self-loops: scores must be equal.
	if math.Abs(res.Scores[0]-res.Scores[1]) > 1e-9 {
		t.Errorf("symmetric fully-throttled sources differ: %v", res.Scores)
	}
}

// TestParsePrecision covers the flag-level parser srank uses.
func TestParsePrecision(t *testing.T) {
	cases := []struct {
		in   string
		want linalg.Precision
		ok   bool
	}{
		{"", linalg.Float64, true},
		{"float64", linalg.Float64, true},
		{"f64", linalg.Float64, true},
		{"float32", linalg.Float32, true},
		{"f32", linalg.Float32, true},
		{"float16", 0, false},
	}
	for _, c := range cases {
		got, err := linalg.ParsePrecision(c.in)
		if c.ok != (err == nil) || (c.ok && got != c.want) {
			t.Errorf("ParsePrecision(%q) = %v, %v", c.in, got, err)
		}
	}
}

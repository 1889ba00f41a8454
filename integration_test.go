package bench

import (
	"bytes"
	"math"
	"testing"

	"sourcerank/internal/core"
	"sourcerank/internal/gen"
	"sourcerank/internal/linalg"
	"sourcerank/internal/pagegraph"
	"sourcerank/internal/rank"
	"sourcerank/internal/rankeval"
	"sourcerank/internal/source"
	"sourcerank/internal/spam"
	"sourcerank/internal/throttle"
	"sourcerank/internal/webgraph"
)

// TestEndToEndAllPresets runs the full pipeline (generate → source graph
// → proximity → throttle → rank) on every dataset preset and checks the
// global invariants: convergence, probability-distribution output, and
// throttled-spam suppression relative to the baseline.
func TestEndToEndAllPresets(t *testing.T) {
	for _, preset := range gen.Presets {
		preset := preset
		t.Run(string(preset), func(t *testing.T) {
			ds, err := gen.GeneratePreset(preset, 0.004, 11)
			if err != nil {
				t.Fatal(err)
			}
			sg, err := source.Build(ds.Pages, source.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := sg.Validate(); err != nil {
				t.Fatal(err)
			}
			seeds := ds.SpamSources[:len(ds.SpamSources)/10+1]
			pipe, err := core.Pipeline(sg, core.PipelineConfig{
				SpamSeeds: seeds,
				TopK:      sg.NumSources() / 40,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !pipe.Stats.Converged || !pipe.ProximityStats.Converged {
				t.Fatalf("solvers did not converge: %+v %+v", pipe.Stats, pipe.ProximityStats)
			}
			if math.Abs(pipe.Scores.Norm1()-1) > 1e-8 {
				t.Errorf("scores sum to %v", pipe.Scores.Norm1())
			}
			base, err := core.BaselineSourceRank(sg, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			basePct, err := rankeval.MeanPercentileOf(base.Scores, ds.SpamSources)
			if err != nil {
				t.Fatal(err)
			}
			srsrPct, err := rankeval.MeanPercentileOf(pipe.Scores, ds.SpamSources)
			if err != nil {
				t.Fatal(err)
			}
			if srsrPct >= basePct {
				t.Errorf("SRSR mean spam percentile %.1f >= baseline %.1f", srsrPct, basePct)
			}
		})
	}
}

// TestDeterminismEndToEnd checks that the entire stack — generation,
// source graph, proximity, ranking — is bit-for-bit reproducible.
func TestDeterminismEndToEnd(t *testing.T) {
	run := func() linalg.Vector {
		ds, err := gen.GeneratePreset(gen.IT2004, 0.004, 99)
		if err != nil {
			t.Fatal(err)
		}
		sg, err := source.Build(ds.Pages, source.Options{})
		if err != nil {
			t.Fatal(err)
		}
		pipe, err := core.Pipeline(sg, core.PipelineConfig{
			SpamSeeds: ds.SpamSources[:3],
			TopK:      20,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pipe.Scores
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("scores differ at %d: %v != %v", i, a[i], b[i])
		}
	}
}

// TestStorageRoundTripPreservesRanking serializes a corpus through both
// the pagegraph binary format and the compressed webgraph format and
// verifies the recovered graphs produce the identical PageRank vector.
func TestStorageRoundTripPreservesRanking(t *testing.T) {
	ds, err := gen.GeneratePreset(gen.UK2002, 0.004, 17)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := rank.PageRank(ds.Pages.ToGraph(), rank.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// pagegraph binary round trip.
	var buf bytes.Buffer
	if err := ds.Pages.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := pagegraph.ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	pr2, err := rank.PageRank(back.ToGraph(), rank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.L2Distance(orig.Scores, pr2.Scores); d != 0 {
		t.Errorf("pagegraph round trip changed PageRank by %g", d)
	}

	// Compressed webgraph round trip, through the decoder the programs run.
	c, err := webgraph.Compress(ds.Pages.ToGraph())
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := c.DecompressParallel(0)
	if err != nil {
		t.Fatal(err)
	}
	pr3, err := rank.PageRank(decoded, rank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.L2Distance(orig.Scores, pr3.Scores); d != 0 {
		t.Errorf("webgraph round trip changed PageRank by %g", d)
	}
}

// TestAttackDefenseCycle plays a full adversarial round: spammer mounts
// every attack primitive against a corpus, defender reruns the pipeline,
// and the spam target must end up no better than it started once
// throttling reacts.
func TestAttackDefenseCycle(t *testing.T) {
	ds, err := gen.GeneratePreset(gen.UK2002, 0.004, 23)
	if err != nil {
		t.Fatal(err)
	}
	web := ds.Pages.Clone()
	spamSrc := web.AddSource("attack-hub.biz")
	var farm []pagegraph.PageID
	for i := 0; i < 6; i++ {
		farm = append(farm, web.AddPage(spamSrc))
	}
	target := farm[0]

	// Mount everything: intra farm, collusion ring, honeypot, hijack.
	if _, err := spam.InjectIntraSource(web, target, 50); err != nil {
		t.Fatal(err)
	}
	colluders, err := spam.InjectCollusionNetwork(web, target, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spam.Honeypot(web, []pagegraph.PageID{1, 2, 3}, target, 4); err != nil {
		t.Fatal(err)
	}
	if err := spam.Hijack(web, []pagegraph.PageID{5, 6}, target); err != nil {
		t.Fatal(err)
	}

	sg, err := source.Build(web, source.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Undefended: no throttling.
	undefended, err := core.Rank(sg, make([]float64, sg.NumSources()), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Defended: the spam hub is labeled; proximity must pull in the
	// colluders and the honeypot.
	pipe, err := core.Pipeline(sg, core.PipelineConfig{
		SpamSeeds: []int32{int32(spamSrc)},
		TopK:      10,
	})
	if err != nil {
		t.Fatal(err)
	}
	caught := 0
	for _, c := range colluders {
		if pipe.Kappa[c] == 1 {
			caught++
		}
	}
	if caught < len(colluders) {
		t.Errorf("only %d/%d colluders throttled", caught, len(colluders))
	}
	up, err := rankeval.Percentile(undefended.Scores, int(spamSrc))
	if err != nil {
		t.Fatal(err)
	}
	dp, err := rankeval.Percentile(pipe.Scores, int(spamSrc))
	if err != nil {
		t.Fatal(err)
	}
	if dp >= up {
		t.Errorf("defense did not reduce spam hub percentile: %.1f -> %.1f", up, dp)
	}
}

// TestThrottleMonotonicInfluence verifies §4.2's monotonicity claim on a
// real corpus: raising every spam source's κ monotonically lowers the
// total influence (score mass) the spam set exports to its targets.
func TestThrottleMonotonicInfluence(t *testing.T) {
	ds, err := gen.GeneratePreset(gen.UK2002, 0.004, 41)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := source.Build(ds.Pages, source.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prox, _, err := throttle.SpamProximity(sg.Structure(), ds.SpamSources, throttle.ProximityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_ = prox
	spamSet := map[int32]bool{}
	for _, s := range ds.SpamSources {
		spamSet[s] = true
	}
	// Mean percentile of NON-spam sources that spam points at, as κ of
	// all spam sources rises: the spam's boost to them must not grow.
	var beneficiaries []int32
	for _, s := range ds.SpamSources {
		cols, _ := sg.Counts.Row(int(s))
		for _, ccol := range cols {
			if !spamSet[ccol] {
				beneficiaries = append(beneficiaries, ccol)
			}
		}
	}
	if len(beneficiaries) == 0 {
		t.Skip("no spam beneficiaries in this corpus")
	}
	prev := math.Inf(1)
	for _, k := range []float64{0, 0.5, 1} {
		kappa := make([]float64, sg.NumSources())
		for _, s := range ds.SpamSources {
			kappa[s] = k
		}
		res, err := core.Rank(sg, kappa, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		var mass float64
		for _, b := range beneficiaries {
			mass += res.Scores[b]
		}
		if mass > prev+1e-9 {
			t.Errorf("beneficiary mass grew when κ rose to %v: %v > %v", k, mass, prev)
		}
		prev = mass
	}
}

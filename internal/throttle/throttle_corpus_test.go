package throttle

import (
	"testing"
	"testing/quick"

	"sourcerank/internal/gen"
	"sourcerank/internal/source"
)

func corpusConfig(seed uint64) gen.Config {
	return gen.Config{
		Seed:               seed,
		NumSources:         60 + int(seed%80),
		PagesPerSourceMin:  2,
		PagesPerSourceExp:  2.0,
		PagesPerSourceMax:  30,
		OutLinksPerPage:    5,
		IntraSourceProb:    0.7,
		PrefAttach:         0.5,
		PartnersPerSource:  8,
		SpamSources:        6,
		SpamCommunitySize:  3,
		SpamPagesPerSource: 5,
		HijackPerSpam:      3,
		SpamCrossLinks:     0.5,
	}
}

// Property: on any generated corpus, Apply preserves stochasticity for
// any κ derived from the actual proximity scores, and fully-throttled
// rows are pure self-loops.
func TestQuickCorpusThrottleInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		ds, err := gen.Generate(corpusConfig(seed % 500))
		if err != nil {
			return false
		}
		sg, err := source.Build(ds.Pages, source.Options{})
		if err != nil {
			return false
		}
		prox, _, err := SpamProximity(sg.Structure(), ds.SpamSources[:2], ProximityOptions{})
		if err != nil {
			return false
		}
		kappa := TopK(prox, sg.NumSources()/10)
		tpp, err := Apply(sg.T, kappa)
		if err != nil {
			return false
		}
		if !tpp.IsRowStochastic(1e-9) {
			return false
		}
		for i := 0; i < tpp.Rows; i++ {
			if kappa[i] == 1 {
				if cols, _ := tpp.Row(i); tpp.At(i, i) != 1 || len(cols) != 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// Seeds must always rank at the very top of their own proximity scores
// when the seed set is a strongly interlinked community.
func TestCorpusSeedsScoreHighProximity(t *testing.T) {
	ds, err := gen.Generate(corpusConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	sg, err := source.Build(ds.Pages, source.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seeds := ds.SpamSources[:3]
	prox, _, err := SpamProximity(sg.Structure(), seeds, ProximityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	for _, p := range prox {
		mean += p
	}
	mean /= float64(len(prox))
	for _, s := range seeds {
		if prox[s] <= mean {
			t.Errorf("seed %d proximity %v not above mean %v", s, prox[s], mean)
		}
	}
}

// Graded κ must dominate TopK κ entrywise (same top-k at 1, everything
// else >= 0), and be monotone in the proximity score.
func TestCorpusGradedDominatesTopK(t *testing.T) {
	ds, err := gen.Generate(corpusConfig(13))
	if err != nil {
		t.Fatal(err)
	}
	sg, err := source.Build(ds.Pages, source.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prox, _, err := SpamProximity(sg.Structure(), ds.SpamSources[:2], ProximityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	k := sg.NumSources() / 20
	binary := TopK(prox, k)
	graded := Graded(prox, k, 0.7)
	for i := range binary {
		if graded[i] < binary[i]-1e-12 && binary[i] == 1 {
			t.Fatalf("graded[%d] = %v below binary %v", i, graded[i], binary[i])
		}
		if graded[i] < 0 || graded[i] > 1 {
			t.Fatalf("graded[%d] = %v outside [0,1]", i, graded[i])
		}
	}
}

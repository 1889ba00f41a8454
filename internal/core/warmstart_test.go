package core

import (
	"math"
	"slices"
	"testing"

	"sourcerank/internal/gen"
	"sourcerank/internal/linalg"
	"sourcerank/internal/source"
	"sourcerank/internal/spam"
)

// pipelineCfg is the shared small-corpus pipeline configuration.
func pipelineCfg(seeds []int32, topK int) PipelineConfig {
	return PipelineConfig{SpamSeeds: seeds, TopK: topK}
}

// TestPipelineWarmStartFewerIterations perturbs a generated web graph by
// a small spam injection (≪5% of links) and checks that refreshing over
// the previous pipeline's state converges in strictly fewer iterations —
// the stationary solve always, the proximity walk to its decision too —
// while assigning the cold κ bit for bit, landing on the same ranks within
// solver tolerance and on the same proximity within the certified bounds.
func TestPipelineWarmStartFewerIterations(t *testing.T) {
	ds, err := gen.GeneratePreset(gen.UK2002, 0.002, 7)
	if err != nil {
		t.Fatal(err)
	}
	pg := ds.Pages
	sg := buildSG(t, pg)
	cfg := pipelineCfg(ds.SpamSources, sg.NumSources()/40)
	st := &RefreshState{}
	if _, _, err := PipelineRefresh(sg, cfg, st); err != nil {
		t.Fatal(err)
	}

	attacked := pg.Clone()
	if _, err := spam.InjectIntraSource(attacked, ds.SpamSources[0], 10); err != nil {
		t.Fatal(err)
	}
	sg2, err := source.Build(attacked, source.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sg2.NumSources() != sg.NumSources() {
		t.Fatalf("perturbation changed source count: %d -> %d", sg.NumSources(), sg2.NumSources())
	}

	cold, coldInfo, err := PipelineRefresh(sg2, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	warm, info, err := PipelineRefresh(sg2, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	if info.Decision.Contested != "" || coldInfo.Decision.Contested != "" {
		t.Fatalf("boundary contested: warm %q, cold %q", info.Decision.Contested, coldInfo.Decision.Contested)
	}

	if warm.Stats.Iterations >= cold.Stats.Iterations {
		t.Errorf("warm solve took %d iterations, cold %d", warm.Stats.Iterations, cold.Stats.Iterations)
	}
	if warm.ProximityStats.Iterations >= cold.ProximityStats.Iterations {
		t.Errorf("warm proximity took %d iterations, cold %d",
			warm.ProximityStats.Iterations, cold.ProximityStats.Iterations)
	}
	if !slices.Equal(warm.Kappa, cold.Kappa) || !slices.Equal(warm.Kappa, coldTopK(t, sg2, cfg)) {
		t.Error("warm κ differs from the cold assignment")
	}
	if d := linalg.L2Distance(warm.Scores, cold.Scores); d > 1e-7 {
		t.Errorf("warm ranks differ from cold by %g", d)
	}
	// Each walk stopped within its certified L1 bound of the one fixed
	// point, so the two are within the sum of the bounds of each other.
	var l1 float64
	for i := range warm.Proximity {
		l1 += math.Abs(warm.Proximity[i] - cold.Proximity[i])
	}
	if bound := info.Decision.Bound + coldInfo.Decision.Bound; l1 > bound {
		t.Errorf("warm proximity differs from cold by %g in L1, beyond the certified %g", l1, bound)
	}
}

// TestConfigX0DimensionError: a wrong-length warm start must error, not
// silently mis-solve.
func TestConfigX0DimensionError(t *testing.T) {
	sg := buildSG(t, corpus(t))
	kappa := make([]float64, sg.NumSources())
	if _, err := Rank(sg, kappa, Config{X0: linalg.NewUniformVector(sg.NumSources() + 1)}); err == nil {
		t.Error("wrong-length X0 accepted")
	}
}

// TestJacobiColdStartsFromTeleport: without X0 the Jacobi solve (a
// throttled κ) starts from the teleport vector, so an explicit uniform X0
// must reproduce it exactly.
func TestJacobiColdStartsFromTeleport(t *testing.T) {
	sg := buildSG(t, corpus(t))
	kappa := make([]float64, sg.NumSources())
	kappa[4] = 1
	plain, err := Rank(sg, kappa, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.op.bias == nil {
		t.Fatal("throttled κ did not solve by Jacobi")
	}
	withX0, err := Rank(sg, kappa, Config{X0: linalg.NewUniformVector(sg.NumSources())})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Scores {
		if plain.Scores[i] != withX0.Scores[i] {
			t.Fatalf("score %d: %v != %v", i, plain.Scores[i], withX0.Scores[i])
		}
	}
}

// The TestRankFrom* cases rank from a previous score vector handed in as
// Config.X0, the one warm-start seam of a stateless solve.

func TestRankFromMatchesColdStart(t *testing.T) {
	sg := buildSG(t, corpus(t))
	kappa := make([]float64, sg.NumSources())
	cold, err := Rank(sg, kappa, Config{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Rank(sg, kappa, Config{X0: cold.Scores})
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.L2Distance(cold.Scores, warm.Scores); d > 1e-9 {
		t.Errorf("warm start diverged by %g", d)
	}
	// Restarting from the answer should converge almost immediately.
	if warm.Stats.Iterations > 3 {
		t.Errorf("warm start from the fixed point took %d iterations", warm.Stats.Iterations)
	}
}

func TestRankFromAfterSmallChange(t *testing.T) {
	pg := corpus(t)
	sg := buildSG(t, pg)
	kappa := make([]float64, sg.NumSources())
	cold, err := Rank(sg, kappa, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Inject a small attack and re-rank warm vs cold.
	attacked := pg.Clone()
	if _, err := spam.InjectIntraSource(attacked, 0, 10); err != nil {
		t.Fatal(err)
	}
	sg2, err := source.Build(attacked, source.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold2, err := Rank(sg2, kappa, Config{})
	if err != nil {
		t.Fatal(err)
	}
	warm2, err := Rank(sg2, kappa, Config{X0: cold.Scores})
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.L2Distance(cold2.Scores, warm2.Scores); d > 1e-7 {
		t.Errorf("warm result differs from cold by %g", d)
	}
	if warm2.Stats.Iterations > cold2.Stats.Iterations {
		t.Errorf("warm start (%d iters) slower than cold (%d)",
			warm2.Stats.Iterations, cold2.Stats.Iterations)
	}
}

func TestRankFromValidation(t *testing.T) {
	sg := buildSG(t, corpus(t))
	kappa := make([]float64, sg.NumSources())
	prev := linalg.NewUniformVector(sg.NumSources())
	if _, err := Rank(nil, kappa, Config{X0: prev}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := Rank(sg, kappa, Config{X0: linalg.NewUniformVector(2)}); err == nil {
		t.Error("wrong prev length accepted")
	}
	if _, err := Rank(sg, []float64{0.5}, Config{X0: prev}); err == nil {
		t.Error("short kappa accepted")
	}
}

func TestRankFromZeroPrevFallsBack(t *testing.T) {
	sg := buildSG(t, corpus(t))
	kappa := make([]float64, sg.NumSources())
	zero := linalg.NewVector(sg.NumSources())
	res, err := Rank(sg, kappa, Config{X0: zero})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Errorf("fallback did not converge: %+v", res.Stats)
	}
	cold, err := Rank(sg, kappa, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.L2Distance(res.Scores, cold.Scores); d > 1e-7 {
		t.Errorf("fallback differs from cold by %g", d)
	}
}

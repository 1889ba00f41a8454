package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sourcerank/internal/linalg"
	"sourcerank/internal/pagegraph"
	"sourcerank/internal/source"
	"sourcerank/internal/throttle"
)

// coldTopK is the κ reference that shares nothing with PipelineRefresh:
// a cold proximity walk over a rebuilt structure, thresholded by
// throttle.TopK's full sort.
func coldTopK(t *testing.T, sg *source.Graph, cfg PipelineConfig) []float64 {
	t.Helper()
	prox, _, err := throttle.SpamProximity(sg.Structure(), cfg.SpamSeeds, throttle.ProximityOptions{})
	if err != nil {
		t.Fatalf("cold proximity: %v", err)
	}
	return throttle.TopK(prox, cfg.TopK)
}

func refreshPageGraph(rng *rand.Rand, sources, pages, links int) *pagegraph.Graph {
	pg := pagegraph.New()
	for s := 0; s < sources; s++ {
		pg.AddSource(fmt.Sprintf("s%03d", s))
	}
	for p := 0; p < pages; p++ {
		pg.AddPage(pagegraph.SourceID(rng.Intn(sources)))
	}
	for l := 0; l < links; l++ {
		pg.AddLink(pagegraph.PageID(rng.Intn(pages)), pagegraph.PageID(rng.Intn(pages)))
	}
	return pg
}

func refreshTargets(pg *pagegraph.Graph, p pagegraph.PageID) []pagegraph.SourceID {
	var s []pagegraph.SourceID
	for _, q := range pg.OutLinks(p) {
		s = append(s, pg.SourceOf(q))
	}
	slices.Sort(s)
	return slices.Compact(s)
}

func refreshDiff(oldSet, newSet []pagegraph.SourceID) (removed, added []pagegraph.SourceID) {
	i, j := 0, 0
	for i < len(oldSet) || j < len(newSet) {
		switch {
		case j == len(newSet) || (i < len(oldSet) && oldSet[i] < newSet[j]):
			removed = append(removed, oldSet[i])
			i++
		case i == len(oldSet) || newSet[j] < oldSet[i]:
			added = append(added, newSet[j])
			j++
		default:
			i++
			j++
		}
	}
	return removed, added
}

// TestPipelineRefreshMatchesCold drives random page churn through the
// incremental source maintainer and checks the refresh contract after
// every step: κ bitwise identical to a cold pipeline over the same
// source graph — and to throttle.TopK (a full sort) of a cold walk, the
// reference that shares no selection code with the refresh — and scores
// within solver tolerance of the cold scores.
func TestPipelineRefreshMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pg := refreshPageGraph(rng, 15, 90, 260)
	inc, err := source.NewIncremental(pg, source.Options{})
	if err != nil {
		t.Fatalf("NewIncremental: %v", err)
	}
	cfg := PipelineConfig{
		SpamSeeds: []int32{0, 3, 7},
		TopK:      4,
	}
	st := &RefreshState{}
	for step := 0; step < 60; step++ {
		if step > 0 {
			for m := 0; m < 1+rng.Intn(3); m++ {
				switch op := rng.Intn(10); {
				case op == 0:
					id := pg.AddSource(fmt.Sprintf("x%03d", step))
					inc.AddSource(pg.SourceLabel(id))
				case op == 1:
					s := pagegraph.SourceID(rng.Intn(pg.NumSources()))
					pg.AddPage(s)
					inc.AddPage(s)
				default:
					p := pagegraph.PageID(rng.Intn(pg.NumPages()))
					before := refreshTargets(pg, p)
					row := slices.Clone(pg.OutLinks(p))
					if len(row) > 0 && rng.Intn(2) == 0 {
						row = slices.Delete(row, 0, 1)
					} else {
						row = append(row, pagegraph.PageID(rng.Intn(pg.NumPages())))
					}
					if err := pg.SetOutLinks(p, row); err != nil {
						t.Fatalf("SetOutLinks: %v", err)
					}
					removed, added := refreshDiff(before, refreshTargets(pg, p))
					inc.UpdatePage(pg.SourceOf(p), removed, added)
				}
			}
		}
		sg := inc.Emit()
		got, info, err := PipelineRefresh(sg, cfg, st)
		if err != nil {
			t.Fatalf("step %d: PipelineRefresh: %v", step, err)
		}
		coldSG, err := source.Build(pg, source.Options{})
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		want, err := Pipeline(coldSG, cfg)
		if err != nil {
			t.Fatalf("step %d: cold pipeline: %v", step, err)
		}
		if !slices.Equal(got.Kappa, want.Kappa) || !slices.Equal(got.Kappa, coldTopK(t, coldSG, cfg)) {
			t.Fatalf("step %d: κ diverged from cold rebuild (gap=%v cold=%v)",
				step, info.BoundaryGap, info.ProximityCold)
		}
		var maxDiff float64
		for i := range want.Scores {
			if d := math.Abs(got.Scores[i] - want.Scores[i]); d > maxDiff {
				maxDiff = d
			}
		}
		if maxDiff > 1e-6 {
			t.Fatalf("step %d: scores drifted %v from cold rebuild", step, maxDiff)
		}
	}
}

// TestPipelineRefreshSkipsSolve pins the fast path: an emit with
// unchanged consensus weights reuses the previous score vector
// pointer-identically after a one-step residual probe.
func TestPipelineRefreshSkipsSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pg := refreshPageGraph(rng, 10, 50, 140)
	inc, err := source.NewIncremental(pg, source.Options{})
	if err != nil {
		t.Fatalf("NewIncremental: %v", err)
	}
	cfg := PipelineConfig{SpamSeeds: []int32{1, 2}, TopK: 3}
	st := &RefreshState{}
	sg := inc.Emit()
	first, info, err := PipelineRefresh(sg, cfg, st)
	if err != nil {
		t.Fatalf("initial refresh: %v", err)
	}
	if info.SolveSkipped || !info.ProximityCold {
		t.Fatalf("initial refresh should run the cold pipeline, got %+v", info)
	}

	// Page-count-only churn shares T, so the probe must skip the solve.
	inc.AddPage(0)
	sg2 := inc.Emit()
	if sg2.T != sg.T {
		t.Fatal("page-count churn should share T")
	}
	second, info, err := PipelineRefresh(sg2, cfg, st)
	if err != nil {
		t.Fatalf("skip refresh: %v", err)
	}
	if !info.SolveSkipped {
		t.Fatalf("expected skipped solve, got %+v", info)
	}
	if &second.Scores[0] != &first.Scores[0] {
		t.Fatal("skipped solve must return the identical score vector")
	}
	if !second.Stats.Converged || second.Stats.Iterations != 0 {
		t.Fatalf("skip stats should report converged probe, got %+v", second.Stats)
	}
	if second.Proximity == nil || &second.Proximity[0] != &first.Proximity[0] {
		t.Fatal("skipped refresh must carry the proximity vector over")
	}
}

// TestPipelineRefreshCarryFollowsSparsity: proximity and κ carry exactly
// while sg.Counts keeps the RowPtr and Cols the retained walk read. A
// rewire that keeps the source count, the edge count and the assignment
// emits new arrays, re-walks, and moves κ to the cold pipeline's; a count
// drift emitted by source.Incremental keeps the arrays and carries.
func TestPipelineRefreshCarryFollowsSparsity(t *testing.T) {
	pg := pagegraph.New()
	for s := 0; s < 6; s++ {
		pg.AddPage(pg.AddSource(fmt.Sprintf("s%d", s)))
	}
	pg.AddLink(1, 0)
	pg.AddLink(2, 3)
	inc, err := source.NewIncremental(pg, source.Options{})
	if err != nil {
		t.Fatal(err)
	}
	link := func(p, to pagegraph.PageID) {
		before := refreshTargets(pg, p)
		if err := pg.SetOutLinks(p, []pagegraph.PageID{to}); err != nil {
			t.Fatal(err)
		}
		removed, added := refreshDiff(before, refreshTargets(pg, p))
		inc.UpdatePage(pg.SourceOf(p), removed, added)
	}
	cfg := PipelineConfig{SpamSeeds: []int32{0}, TopK: 2}
	st := &RefreshState{}
	refresh := func(what string, carried bool, kappa []float64) {
		t.Helper()
		got, info, err := PipelineRefresh(inc.Emit(), cfg, st)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if info.ProximityCarried != carried {
			t.Fatalf("%s: proximity carried %v, want %v", what, info.ProximityCarried, carried)
		}
		coldSG, err := source.Build(pg, source.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Pipeline(coldSG, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Kappa, kappa) || !slices.Equal(cold.Kappa, kappa) {
			t.Fatalf("%s: κ %v, cold pipeline's %v, want %v", what, got.Kappa, cold.Kappa, kappa)
		}
	}
	refresh("first", false, []float64{1, 1, 0, 0, 0, 0})
	// Source 1 now links into 3 and source 2 into spam source 0.
	link(1, 3)
	link(2, 0)
	refresh("rewire", false, []float64{1, 0, 1, 0, 0, 0})
	// A second page of source 2 linking into 0 raises one count.
	link(pg.AddPage(2), 0)
	inc.AddPage(2)
	refresh("drift", true, []float64{1, 0, 1, 0, 0, 0})
}

// TestPipelineRefreshLabelChangeRewalks is the regression for the skip
// path keying on the graph alone: over an unchanged source graph a
// changed seed set (and a changed top-k size) must
// re-walk the proximity — warm, under the boundary guard — and land on
// the cold κ bit for bit, while the same inputs again still skip.
func TestPipelineRefreshLabelChangeRewalks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sg, err := source.Build(refreshPageGraph(rng, 40, 240, 900), source.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := PipelineConfig{SpamSeeds: []int32{1, 2, 5, 8, 13, 21}, TopK: 6}
	st := &RefreshState{}
	if _, _, err := PipelineRefresh(sg, cfg, st); err != nil {
		t.Fatal(err)
	}
	changes := []struct {
		name   string
		mutate func(*PipelineConfig)
	}{
		{"half the seeds", func(c *PipelineConfig) { c.SpamSeeds = c.SpamSeeds[:3] }},
		{"one seed appended", func(c *PipelineConfig) { c.SpamSeeds = append(slices.Clone(c.SpamSeeds), 34) }},
		{"top-k", func(c *PipelineConfig) { c.TopK = 9 }},
	}
	for _, ch := range changes {
		ch.mutate(&cfg)
		got, info, err := PipelineRefresh(sg, cfg, st)
		if err != nil {
			t.Fatalf("%s: %v", ch.name, err)
		}
		if info.SolveSkipped {
			t.Fatalf("%s: refresh skipped over a changed assignment", ch.name)
		}
		if got.ProximityStats.Iterations == 0 {
			t.Fatalf("%s: proximity not re-walked", ch.name)
		}
		if d := info.Decision; d.Contested == "" && !(info.BoundaryGap > 2*d.Bound) {
			t.Fatalf("%s: walk stopped at gap %v, not above twice its bound %v", ch.name, info.BoundaryGap, d.Bound)
		}
		cold, err := Pipeline(sg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Kappa, cold.Kappa) {
			t.Fatalf("%s: κ differs from the cold pipeline's", ch.name)
		}
		if !slices.Equal(got.Kappa, coldTopK(t, sg, cfg)) {
			t.Fatalf("%s: κ differs from throttle.TopK of a cold walk", ch.name)
		}
		if d := linalg.L2Distance(got.Scores, cold.Scores); d > 1e-7 {
			t.Fatalf("%s: scores differ from cold by %g", ch.name, d)
		}
		again, info, err := PipelineRefresh(sg, cfg, st)
		if err != nil {
			t.Fatal(err)
		}
		if !info.SolveSkipped || &again.Scores[0] != &got.Scores[0] {
			t.Fatalf("%s: unchanged inputs did not skip: %+v", ch.name, info)
		}
	}
	// Mutating the caller's seed slice in place is a change too: the
	// state compares against its own copy.
	cfg.SpamSeeds[0] = 3
	if _, info, err := PipelineRefresh(sg, cfg, st); err != nil || info.SolveSkipped {
		t.Fatalf("in-place seed edit skipped (err %v)", err)
	}
}

// TestPipelineRefreshFailedSolveDisarmsSkip: a refresh whose solve fails
// after κ was patched for new seeds leaves no fast path armed over scores
// solved for the old κ. The failure is a graph that shares the structure
// but whose T has one row fewer, so the walk and κ succeed and
// throttle.Validate refuses κ's length; the next refresh over the good
// graph under the new seeds must solve, and land on the cold pipeline.
func TestPipelineRefreshFailedSolveDisarmsSkip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sg, err := source.Build(refreshPageGraph(rng, 40, 240, 900), source.Options{})
	if err != nil {
		t.Fatal(err)
	}
	x := PipelineConfig{SpamSeeds: []int32{1, 2, 5}, TopK: 6}
	y := PipelineConfig{SpamSeeds: []int32{8, 13, 21}, TopK: 6}
	st := &RefreshState{}
	first, _, err := PipelineRefresh(sg, x, st)
	if err != nil {
		t.Fatal(err)
	}
	n := sg.NumSources()
	broken := *sg
	broken.T = &linalg.CSR{Rows: n - 1, ColsN: n - 1, RowPtr: make([]int64, n)}
	if _, _, err := PipelineRefresh(&broken, y, st); err == nil {
		t.Fatal("refresh over a T with n-1 rows succeeded")
	}
	got, info, err := PipelineRefresh(sg, y, st)
	if err != nil {
		t.Fatal(err)
	}
	if info.SolveSkipped {
		t.Fatal("solve skipped over scores solved for the previous seeds")
	}
	cold, err := Pipeline(sg, y)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(cold.Kappa, first.Kappa) {
		t.Fatal("the two seed sets give one κ; the test needs them to differ")
	}
	if !slices.Equal(got.Kappa, cold.Kappa) {
		t.Fatal("κ differs from the cold pipeline's")
	}
	if d := linalg.L2Distance(got.Scores, cold.Scores); d > 1e-6 {
		t.Fatalf("scores differ from cold by %g", d)
	}
}

// TestPipelineRefreshCountsFlipsAgainstPreviousKappa: sources 1 and 2 link
// only to 0, and 4 and 5 only to 3, so every walk scores each pair
// bitwise equal and the top-2 boundary is an exact tie, contested from
// any start. Moving the seed from 0 to 3 moves κ from {0, 1} to {3, 4}:
// four flips against the κ before the refresh, however many walks it took.
func TestPipelineRefreshCountsFlipsAgainstPreviousKappa(t *testing.T) {
	pg := pagegraph.New()
	for s := 0; s < 6; s++ {
		pg.AddPage(pg.AddSource(fmt.Sprintf("s%d", s)))
	}
	for _, l := range [][2]pagegraph.PageID{{1, 0}, {2, 0}, {4, 3}, {5, 3}} {
		pg.AddLink(l[0], l[1])
	}
	sg, err := source.Build(pg, source.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := &RefreshState{}
	for _, step := range []struct {
		seed  int32
		kappa []float64
		flips int
	}{{0, []float64{1, 1, 0, 0, 0, 0}, 2}, {3, []float64{0, 0, 0, 1, 1, 0}, 4}} {
		got, info, err := PipelineRefresh(sg, PipelineConfig{SpamSeeds: []int32{step.seed}, TopK: 2}, st)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Kappa, step.kappa) || info.Decision.Contested == "" || info.KappaChanged != step.flips {
			t.Fatalf("seed %d: κ %v, %d flips, contested %q; want κ %v, %d flips, contested",
				step.seed, got.Kappa, info.KappaChanged, info.Decision.Contested, step.kappa, step.flips)
		}
	}
}

// TestPipelineRefreshJacobi: a stateful Jacobi refresh over changed
// labels is, bit for bit, the Jacobi solve of the new κ warm-started from
// the previous scores, and lands on the cold Jacobi pipeline's σ.
func TestPipelineRefreshJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sg, err := source.Build(refreshPageGraph(rng, 40, 240, 900), source.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := PipelineConfig{SpamSeeds: []int32{1, 2, 5, 8}, TopK: 5}
	st := &RefreshState{}
	first, _, err := PipelineRefresh(sg, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SpamSeeds = []int32{3, 4}
	got, _, err := PipelineRefresh(sg, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Rank(sg, got.Kappa, Config{X0: first.Scores})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Scores, warm.Scores) {
		t.Fatal("stateful Jacobi refresh is not the Jacobi solve warm-started from the previous scores")
	}
	cold, err := Pipeline(sg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.L2Distance(got.Scores, cold.Scores); d > 1e-8 {
		t.Fatalf("stateful Jacobi refresh differs from the cold Jacobi pipeline by %g", d)
	}
}

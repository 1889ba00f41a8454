package server_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"sourcerank/internal/gen"
	"sourcerank/internal/linalg"
	"sourcerank/internal/pagegraph"
	"sourcerank/internal/rank"
	"sourcerank/internal/server"
	"sourcerank/internal/source"
	"sourcerank/internal/stream"
)

// corpusOf derives the cold builder's view of pg.
func corpusOf(t *testing.T, pg *pagegraph.Graph) server.Corpus {
	t.Helper()
	sg, err := source.Build(pg, source.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return server.Corpus{Pages: pg, Source: sg}
}

// sameBuild fails unless got is want bit for bit: every score of every
// set, κ, and which paths the build took.
func sameBuild(t *testing.T, what string, want, got *server.Snapshot, wantInfo, gotInfo server.BuildInfo, wantKappa, gotKappa []float64) {
	t.Helper()
	if !slices.Equal(want.Algos(), got.Algos()) {
		t.Fatalf("%s: sets %v, want %v", what, got.Algos(), want.Algos())
	}
	for _, algo := range want.Algos() {
		w, g := want.Set(algo).ScoresView(), got.Set(algo).ScoresView()
		if len(w) != len(g) {
			t.Fatalf("%s: %s has %d scores, want %d", what, algo, len(g), len(w))
		}
		for i := range w {
			if math.Float64bits(w[i]) != math.Float64bits(g[i]) {
				t.Fatalf("%s: %s score %d is %x, want %x", what, algo, i, math.Float64bits(g[i]), math.Float64bits(w[i]))
			}
		}
	}
	if !slices.Equal(wantKappa, gotKappa) {
		t.Errorf("%s: κ differs", what)
	}
	type flags struct{ skipped, cold, carried, prSkipped, trSkipped bool }
	of := func(i server.BuildInfo) flags {
		return flags{i.SolveSkipped, i.ProximityCold, i.ProximityCarried, i.PageRankSkipped, i.TrustRankSkipped}
	}
	if of(wantInfo) != of(gotInfo) || wantInfo.KappaChanged != gotInfo.KappaChanged {
		t.Errorf("%s: build paths %+v (%d κ flips), want %+v (%d)", what, of(gotInfo), gotInfo.KappaChanged, of(wantInfo), wantInfo.KappaChanged)
	}
}

// checkBranches fails unless the build ran its branches at once exactly
// when SRSR and a baseline both had to solve on two or more workers, and
// the per-set solve times partition no more than the build's wall time.
func checkBranches(t *testing.T, what string, snap *server.Snapshot, info server.BuildInfo, workers int, wall time.Duration) {
	t.Helper()
	if want := workers >= 2 && !(info.PageRankSkipped && info.TrustRankSkipped); info.Concurrent != want {
		t.Errorf("%s: concurrent %v, want %v", what, info.Concurrent, want)
	}
	var sum time.Duration
	for _, algo := range snap.Algos() {
		sum += snap.Set(algo).SolveTime()
	}
	if sum > wall {
		t.Errorf("%s: solve times sum to %v, more than the build's %v", what, sum, wall)
	}
}

// churnBatch draws one batch of a churn class against pg: "recrawl"
// re-adds links pages already have and touches pages (the consensus matrix
// stays put), "drift" makes a sibling page link where its source already
// links (counts move, sparsity does not), "rewire" moves one link of a page
// to a random page (sparsity moves).
func churnBatch(rng *rand.Rand, pg *pagegraph.Graph, class string, links int) []stream.Delta {
	var ds []stream.Delta
	moved := map[pagegraph.PageID]bool{}
	for i := 0; i < links; i++ {
		p := pagegraph.PageID(rng.Intn(pg.NumPages()))
		out := pg.OutLinks(p)
		if len(out) == 0 || moved[p] {
			continue
		}
		tgt := out[rng.Intn(len(out))]
		switch class {
		case "recrawl":
			ds = append(ds, stream.AddEdge(p, tgt), stream.TouchPage(p))
		case "drift":
			sib := pg.PagesOf(pg.SourceOf(p))
			p2 := sib[rng.Intn(len(sib))]
			if !slices.ContainsFunc(pg.OutLinks(p2), func(q pagegraph.PageID) bool { return pg.SourceOf(q) == pg.SourceOf(tgt) }) {
				ds = append(ds, stream.AddEdge(p2, tgt))
			}
		case "rewire":
			// One removal per page per batch: removing a link the page no
			// longer has rejects the batch.
			moved[p] = true
			ds = append(ds, stream.RemoveEdge(p, tgt), stream.AddEdge(p, pagegraph.PageID(rng.Intn(pg.NumPages()))))
		}
	}
	return ds
}

// TestBuildWorkerInvariant: at 1 to 4 workers — inline, and two branches
// split 1+1, 2+1 and 2+2 — a build publishes the same bits: every score
// of every set, κ, and the same skip and cold-walk account, on a cold
// build and then through a streamed sequence of rewire, drift and recrawl
// batches, whose rewires run the branches at once and whose drifts and
// recrawls run them inline.
func TestBuildWorkerInvariant(t *testing.T) {
	ds, err := gen.GeneratePreset(gen.UK2002, 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	workers := []int{1, 2, 3, 4}

	c := corpusOf(t, ds.Pages)
	var ref *server.Snapshot
	var refInfo server.BuildInfo
	var refKappa []float64
	for _, w := range workers {
		b := &server.Builder{Config: server.BuildConfig{Workers: w}}
		t0 := time.Now()
		snap, info, err := b.Build(c, ds.SpamSources)
		wall := time.Since(t0)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("cold build, %d workers", w)
		checkBranches(t, what, snap, info, w, wall)
		if ref == nil {
			ref, refInfo, refKappa = snap, info, b.Kappa()
			continue
		}
		sameBuild(t, what, ref, snap, refInfo, info, refKappa, b.Kappa())
	}

	pipes := make([]*stream.Pipeline, len(workers))
	for i, w := range workers {
		if pipes[i], err = stream.NewPipeline(ds.Pages.Clone(), stream.Options{Spam: ds.SpamSources, Workers: w}); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(11))
	var concurrent, inline int
	for step, class := range []string{"cold", "rewire", "drift", "recrawl", "rewire", "drift", "recrawl", "rewire"} {
		var batch []stream.Delta
		if class != "cold" {
			batch = churnBatch(rng, pipes[0].Ingestor().PageGraph(), class, 40)
		}
		var ref *server.Snapshot
		var refStats stream.RefreshStats
		for i, p := range pipes {
			if batch != nil {
				if _, err := p.Apply(batch); err != nil {
					t.Fatalf("step %d (%s): %v", step, class, err)
				}
			}
			snap, st, err := p.Refresh()
			if err != nil {
				t.Fatalf("step %d (%s): %v", step, class, err)
			}
			what := fmt.Sprintf("step %d (%s), %d workers", step, class, workers[i])
			checkBranches(t, what, snap, st.BuildInfo, workers[i], st.Solve)
			if st.Concurrent {
				concurrent++
			} else if workers[i] >= 2 {
				inline++
			}
			if i == 0 {
				ref, refStats = snap, st
				continue
			}
			sameBuild(t, what, ref, snap, refStats.BuildInfo, st.BuildInfo, pipes[0].Kappa(), p.Kappa())
		}
	}
	if concurrent == 0 || inline == 0 {
		t.Errorf("the sequence ran %d multi-worker refreshes with the branches at once and %d inline; want both", concurrent, inline)
	}
}

// TestBuildBranchFailure: a spam seed out of range fails the SRSR branch
// while the baselines branch succeeds. Build returns the SRSR error only
// once both branches have ended — no goroutine outlives the call, and the
// baselines it solved are retained — so the next valid build carries
// PageRank and TrustRank, re-solves SRSR from no history, and publishes
// exactly what a cold build does.
func TestBuildBranchFailure(t *testing.T) {
	ds, err := gen.GeneratePreset(gen.UK2002, 0.002, 7)
	if err != nil {
		t.Fatal(err)
	}
	c := corpusOf(t, ds.Pages)
	bad := append(slices.Clone(ds.SpamSources), int32(c.Source.NumSources()+5))
	b := &server.Builder{Config: server.BuildConfig{Workers: 2}}
	before := runtime.NumGoroutine()
	_, info, err := b.Build(c, bad)
	if err == nil || !strings.Contains(err.Error(), "server: srsr:") || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("build with an out-of-range seed: %v, want the srsr branch's range error", err)
	}
	// A solver's worker pool is closed before its solve returns, but its
	// goroutines may take a moment to be scheduled out.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive the failed build, %d before it", runtime.NumGoroutine(), before)
		}
	}
	if !info.Concurrent || info.BaselinesWall == 0 {
		t.Errorf("failed build did not run the baselines beside SRSR: %+v", info)
	}
	if b.Kappa() != nil {
		t.Error("the failed walk left a κ behind")
	}

	snap, info, err := b.Build(c, ds.SpamSources)
	if err != nil {
		t.Fatal(err)
	}
	if !info.PageRankSkipped || !info.TrustRankSkipped {
		t.Errorf("baselines solved by the failed build were not carried: %+v", info)
	}
	if info.SolveSkipped || info.ProximityCarried || !info.ProximityCold {
		t.Errorf("srsr after a failed build did not re-walk cold: %+v", info)
	}
	coldB := &server.Builder{Config: server.BuildConfig{Workers: 2}}
	cold, coldInfo, err := coldB.Build(c, ds.SpamSources)
	if err != nil {
		t.Fatal(err)
	}
	coldInfo.PageRankSkipped, coldInfo.TrustRankSkipped = true, true
	sameBuild(t, "build after a failed one", cold, snap, coldInfo, info, coldB.Kappa(), b.Kappa())
}

// TestBuildBaselineSweep: when PageRank and TrustRank both re-solve they
// run as one sweep, inline at one worker and beside SRSR at two, and each
// is still bitwise its solo rank.SolveSplit over the structure's Mᵀ. Each is stamped
// when its own walk finished, so both completion-order shares are
// positive, and the shares still fit in the build.
func TestBuildBaselineSweep(t *testing.T) {
	ds, err := gen.GeneratePreset(gen.UK2002, 0.005, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := corpusOf(t, ds.Pages)
	mt := rank.TransitionT(c.Source.Structure())
	tele, err := rank.TrustTeleport(mt.Rows, server.TrustedSeeds(c.Source, ds.SpamSources))
	if err != nil {
		t.Fatal(err)
	}
	solo := map[server.Algo]rank.Options{server.AlgoPageRank: {}, server.AlgoTrustRank: {Teleport: tele}}
	for _, w := range []int{1, 2} {
		b := &server.Builder{Config: server.BuildConfig{Workers: w}}
		t0 := time.Now()
		snap, info, err := b.Build(c, ds.SpamSources)
		wall := time.Since(t0)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("cold build, %d workers", w)
		checkBranches(t, what, snap, info, w, wall)
		if !info.BaselinesSwept {
			t.Errorf("%s: the baselines did not run as one sweep: %+v", what, info)
		}
		for algo, opt := range solo {
			var want *rank.Result
			if err := rank.SolveSplit(mt, []rank.Options{opt}, func(_ int, r *rank.Result) { want = r }); err != nil {
				t.Fatal(err)
			}
			set := snap.Set(algo)
			if set.Stats() != want.Stats || !slices.EqualFunc(set.ScoresView(), want.Scores, func(x, y float64) bool {
				return math.Float64bits(x) == math.Float64bits(y)
			}) {
				t.Errorf("%s: %s is not its solo solve (%+v, solo %+v)", what, algo, set.Stats(), want.Stats)
			}
			if set.SolveTime() <= 0 {
				t.Errorf("%s: %s's share of the solve stage is %v", what, algo, set.SolveTime())
			}
		}
	}
}

// TestBuildTrustSeedFailure: labels that leave no trusted seed fail
// TrustRank's teleport, and an out-of-range label fails SRSR, but the
// baselines branch still solves PageRank and keeps it. The next valid
// build carries PageRank, solves TrustRank and SRSR from no history, and
// publishes exactly what a cold build does.
func TestBuildTrustSeedFailure(t *testing.T) {
	ds, err := gen.GeneratePreset(gen.UK2002, 0.002, 7)
	if err != nil {
		t.Fatal(err)
	}
	c := corpusOf(t, ds.Pages)
	var all []int32
	for i := range c.Source.NumSources() + 1 {
		all = append(all, int32(i))
	}
	for _, w := range []int{1, 2} {
		b := &server.Builder{Config: server.BuildConfig{Workers: w}}
		_, failed, err := b.Build(c, all)
		if err == nil {
			t.Fatal("a build with every source labeled spam succeeded")
		}
		if failed.BaselinesSwept || failed.PageRankSkipped || failed.BaselinesWall == 0 {
			t.Errorf("%d workers: the failed build did not solve PageRank alone: %+v", w, failed)
		}
		if _, ok := b.LastBuild(); ok {
			t.Error("a failed build was recorded as the last build")
		}
		snap, info, err := b.Build(c, ds.SpamSources)
		if err != nil {
			t.Fatal(err)
		}
		if !info.PageRankSkipped || info.TrustRankSkipped || info.BaselinesSwept {
			t.Errorf("%d workers: after the failed build PageRank was not carried alone: %+v", w, info)
		}
		coldB := &server.Builder{Config: server.BuildConfig{Workers: w}}
		cold, coldInfo, err := coldB.Build(c, ds.SpamSources)
		if err != nil {
			t.Fatal(err)
		}
		coldInfo.PageRankSkipped = true
		sameBuild(t, fmt.Sprintf("%d workers, build after a failed one", w), cold, snap, coldInfo, info, coldB.Kappa(), b.Kappa())
	}
}

// TestBaselinesHoldUnderWarmRewires: over 30 consecutive rewire batches
// through one builder, each warm-starting from the last, every published
// PageRank and TrustRank passes one power step at the paper's threshold
// and stays within 1e-7 L1 of a power solve run to 1e-14. A Jacobi stop
// alone lets TrustRank's normalization error grow round after round past
// 1e-9; the power confirmation is what holds it.
func TestBaselinesHoldUnderWarmRewires(t *testing.T) {
	ds, err := gen.GeneratePreset(gen.UK2002, 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := stream.NewPipeline(ds.Pages.Clone(), stream.Options{Spam: ds.SpamSources, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	var worstStep, worstL1 float64
	for round := 0; round <= 30; round++ {
		pg := p.Ingestor().PageGraph()
		if round > 0 {
			if _, err := p.Apply(churnBatch(rng, pg, "rewire", int(pg.NumLinks()/1000))); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		snap, st, err := p.Refresh()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if round > 0 && (st.PageRankSkipped || st.TrustRankSkipped || !st.BaselinesSwept) {
			t.Fatalf("round %d: the rewire did not re-solve both baselines: %+v", round, st.BuildInfo)
		}
		sg := corpusOf(t, pg).Source
		mt := rank.TransitionT(sg.Structure())
		trust, err := rank.TrustTeleport(mt.Rows, server.TrustedSeeds(sg, ds.SpamSources))
		if err != nil {
			t.Fatal(err)
		}
		for algo, tele := range map[server.Algo]linalg.Vector{server.AlgoPageRank: linalg.NewUniformVector(mt.Rows), server.AlgoTrustRank: trust} {
			got := snap.Set(algo).ScoresView()
			fp, err := linalg.NewFusedPower(mt, 0.85, tele, linalg.ResidualL2, 2)
			if err != nil {
				t.Fatal(err)
			}
			step := fp.Step(make([]float64, len(got)), got)
			fp.Close()
			if !(step < 1e-9) {
				t.Errorf("round %d: one power step moves the published %s by %g", round, algo, step)
			}
			ref, rst, err := linalg.PowerMethodT(mt, 0.85, tele, nil, linalg.SolverOptions{Tol: 1e-14})
			if err != nil || !rst.Converged {
				t.Fatalf("round %d: %s reference: %v, %+v", round, algo, err, rst)
			}
			var l1 float64
			for i := range ref {
				l1 += math.Abs(got[i] - ref[i])
			}
			if l1 > 1e-7 {
				t.Errorf("round %d: the published %s is %g in L1 from the fixed point", round, algo, l1)
			}
			worstStep, worstL1 = max(worstStep, step), max(worstL1, l1)
		}
	}
	t.Logf("worst over the rounds: power step %.3g, L1 from the fixed point %.3g", worstStep, worstL1)
}

package server

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sourcerank/internal/core"
	"sourcerank/internal/linalg"
	"sourcerank/internal/pagegraph"
	"sourcerank/internal/rank"
	"sourcerank/internal/source"
	"sourcerank/internal/throttle"
)

// BuildConfig configures the offline snapshot computation, which
// computes every one of DefaultAlgos — AlgoSRSR only when spam labels
// are given, since the proximity walk needs a seed set, and
// AlgoTrustRank only when some source is not labeled spam, since its
// teleport needs a trusted one — with each solve run to linalg's default
// tolerance and iteration cap.
type BuildConfig struct {
	// Alpha is the mixing parameter for all walks; 0 defaults to 0.85.
	Alpha float64
	// TopK is the number of highest-proximity sources throttled fully;
	// 0 selects throttle.DefaultTopK, the paper's cut.
	TopK int
	// Workers bounds solver parallelism; <= 0 selects GOMAXPROCS. When
	// SRSR and the baselines both solve, they run at once on ⌈W/2⌉ and
	// ⌊W/2⌋ of them (see Builder.Build).
	Workers int
	// Name labels the corpus in CorpusInfo.
	Name string
	// Extra injects precomputed score vectors (e.g. loaded with
	// linalg.ReadVectorFile) to serve alongside the computed sets. Each
	// vector must have one score per source.
	Extra map[Algo]linalg.Vector
}

// Corpus is the graph one build reads. The baselines and the proximity
// walk read only Source.Structure(), the sparsity of Source.Counts: count
// drift inside existing consensus cells leaves their operators, and so
// their fixed points, unchanged, and a builder knows the sparsity held
// when Source.Counts shares the RowPtr and Cols arrays of the graph it
// last solved (as source.Incremental.Emit's graphs do, and as one graph
// passed again does).
type Corpus struct {
	Pages  *pagegraph.Graph
	Source *source.Graph
}

// BuildInfo reports which incremental paths one build took.
type BuildInfo struct {
	// RefreshInfo is the SRSR pipeline's account (zero when SRSR was not
	// computed).
	core.RefreshInfo
	// PageRankSkipped / TrustRankSkipped: the baseline reused the
	// previous vector because its operator (and, for TrustRank, its
	// trusted-seed set) was unchanged.
	PageRankSkipped  bool
	TrustRankSkipped bool
	// SRSRWall and BaselinesWall are the wall times of the build's two
	// solve branches: SRSR's pipeline, and PageRank and TrustRank
	// (carried ones included). Concurrent reports that the branches ran at
	// once, each on half the workers; otherwise they ran one after the
	// other on all of them, and the build's solve stage is their sum.
	SRSRWall, BaselinesWall time.Duration
	Concurrent              bool
	// BaselinesSwept reports that PageRank and TrustRank both re-solved,
	// as one affine sweep over the Jacobi split of their shared Mᵀ.
	BaselinesSwept bool
}

// baseline is one uniform-weight solve the builder retains: the vector,
// its convergence, and the Counts RowPtr and Cols arrays (and, for
// TrustRank, the trusted seeds) it was solved for.
type baseline struct {
	scores linalg.Vector
	stats  linalg.IterStats
	rowPtr []int64
	cols   []int32
	seeds  []int32
}

// Builder computes snapshots and carries each build's solver state into
// the next, so a build costs what changed since the last: the SRSR
// pipeline runs through core.PipelineRefresh over one RefreshState, and
// the baselines re-solve — warm, over one split of Mᵀ built for the
// build — only when the sparsity (or TrustRank's seed set) moved. A
// carried vector is
// the previous snapshot's very array, which is what lets Store.Publish
// and the replica codec reuse everything derived from it. The zero
// Builder has no history: its first Build is the cold build, and
// BuildSnapshot is exactly that. Build calls are serialized.
type Builder struct {
	// Config is fixed for the builder's lifetime.
	Config BuildConfig

	mu     sync.Mutex
	srsr   core.RefreshState
	pr, tr baseline
	last   atomic.Pointer[BuildInfo] // the last successful build's account
}

// BuildSnapshot runs the offline stage: derive the source graph once,
// compute every algorithm's score vector over it, and index
// the results into an immutable Snapshot ready for Store.Publish.
func BuildSnapshot(pg *pagegraph.Graph, spam []int32, cfg BuildConfig) (*Snapshot, error) {
	sg, err := source.Build(pg, source.Options{})
	if err != nil {
		return nil, fmt.Errorf("server: building source graph: %w", err)
	}
	return BuildSnapshotFromSourceGraph(pg, sg, spam, cfg)
}

// BuildSnapshotFromSourceGraph is BuildSnapshot for callers that already
// hold the derived source graph: one Build of a throwaway Builder.
func BuildSnapshotFromSourceGraph(pg *pagegraph.Graph, sg *source.Graph, spam []int32, cfg BuildConfig) (*Snapshot, error) {
	snap, _, err := (&Builder{Config: cfg}).Build(Corpus{Pages: pg, Source: sg}, spam)
	return snap, err
}

// Kappa returns a copy of the current throttling vector (nil before the
// first SRSR build).
func (b *Builder) Kappa() []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return slices.Clone(b.srsr.Kappa)
}

// Build computes the snapshot of c under the spam labels. The SRSR
// pipeline and the baselines (PageRank, then TrustRank) share nothing but
// the graph they read, so when both must solve and the worker budget is
// at least two they run at once, SRSR on ⌈W/2⌉ workers and the baselines
// on ⌊W/2⌋; otherwise they run one after the other on all W. Every solve
// is bitwise worker-invariant, so the split moves no score. An error
// leaves the retained state usable: each branch keeps what it solved, and
// the next Build re-solves whatever this one did not finish.
func (b *Builder) Build(c Corpus, spam []int32) (*Snapshot, BuildInfo, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	cfg, sg := b.Config, c.Source
	start := time.Now()
	topK := cfg.TopK
	if topK <= 0 {
		topK = throttle.DefaultTopK(sg.NumSources())
	}
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	trSeeds := TrustedSeeds(sg, spam)
	var srsr, base branch
	concurrent := len(spam) > 0 && w >= 2 && !(b.pr.current(c, nil) && b.tr.current(c, trSeeds))
	if concurrent {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			srsr = b.solveSRSR(c, spam, topK, (w+1)/2)
		}()
		base = b.solveBaselines(c, trSeeds, w/2)
		wg.Wait()
	} else {
		if len(spam) > 0 {
			srsr = b.solveSRSR(c, spam, topK, w)
		}
		base = b.solveBaselines(c, trSeeds, w)
	}
	info := BuildInfo{RefreshInfo: srsr.info.RefreshInfo,
		PageRankSkipped: base.info.PageRankSkipped, TrustRankSkipped: base.info.TrustRankSkipped,
		SRSRWall: srsr.wall, BaselinesWall: base.wall, Concurrent: concurrent, BaselinesSwept: base.info.BaselinesSwept}
	if srsr.err != nil {
		return nil, info, srsr.err
	}
	if base.err != nil {
		return nil, info, base.err
	}
	// Each set is charged its share of the stage's wall time in the order
	// the sets completed, so the charges partition the stage even when the
	// branches overlap.
	done := append(srsr.sets, base.sets...)
	slices.SortStableFunc(done, func(x, y solved) int { return x.done.Compare(y.done) })
	sets := make(map[Algo]*ScoreSet, len(DefaultAlgos)+len(cfg.Extra))
	for _, s := range done {
		sets[s.algo] = NewScoreSetSolved(s.scores, s.stats, s.done.Sub(start), s.warm)
		start = s.done
	}
	for algo, vec := range cfg.Extra {
		sets[algo] = NewScoreSet(vec, linalg.IterStats{Converged: true})
	}
	corpus := CorpusInfo{
		Name:        cfg.Name,
		Pages:       c.Pages.NumPages(),
		Links:       c.Pages.NumLinks(),
		SpamLabeled: len(spam),
	}
	snap, err := NewSnapshot(corpus, sg.Labels, sg.PageCount, topK, sets, time.Now())
	if err == nil {
		b.last.Store(&info)
	}
	return snap, info, err
}

// LastBuild returns the account of the builder's last successful build,
// and false before there is one. It does not wait for a build in flight.
func (b *Builder) LastBuild() (BuildInfo, bool) {
	if p := b.last.Load(); p != nil {
		return *p, true
	}
	return BuildInfo{}, false
}

// solved is one score set a solve branch produced, stamped with when it
// was done.
type solved struct {
	algo   Algo
	scores linalg.Vector
	stats  linalg.IterStats
	warm   bool
	done   time.Time
}

// branch is what one solve branch of a build returns: its sets in the
// order it finished them, its part of the build's account, its wall time
// and the first error it met.
type branch struct {
	sets []solved
	info BuildInfo
	wall time.Duration
	err  error
}

// solveSRSR is the SRSR branch: the proximity → κ → throttle → solve
// pipeline over the retained RefreshState, on workers workers.
func (b *Builder) solveSRSR(c Corpus, spam []int32, topK, workers int) (out branch) {
	start := time.Now()
	defer func() { out.wall = time.Since(start) }()
	cfg := b.Config
	warm := b.srsr.Scores != nil
	res, ri, err := core.PipelineRefresh(c.Source, core.PipelineConfig{
		Config:    core.Config{Alpha: cfg.Alpha, Workers: workers},
		SpamSeeds: spam,
		TopK:      topK,
	}, &b.srsr)
	if err != nil {
		out.err = fmt.Errorf("server: srsr: %w", err)
		return out
	}
	out.info.RefreshInfo = ri
	out.sets = []solved{{AlgoSRSR, res.Scores, res.Stats, warm, time.Now()}}
	return out
}

// solveBaselines is the baselines branch: PageRank, and TrustRank
// teleporting to trSeeds, each carried when current and re-solved on
// workers workers otherwise — warm, by Jacobi over the split of the Mᵀ
// both walk, then confirmed by the power method over Mᵀ
// (rank.SolveSplit). Mᵀ and its split are built when a walk re-solves and
// dropped with the branch: nearly every build that re-solves follows a
// structure change, so keeping them for the next build saves little, and
// over a stream of rewires it measured 4–6 % more peak RSS. When both
// re-solve they run as one affine sweep, each bitwise its solo solve and
// stamped when its own walk finishes. TrustRank with no trusted seed is
// left out; a TrustRank teleport that cannot be formed fails the branch
// but leaves PageRank solved; a baseline the branch does not solve keeps
// its previous vector.
func (b *Builder) solveBaselines(c Corpus, trSeeds []int32, workers int) (out branch) {
	start := time.Now()
	defer func() { out.wall = time.Since(start) }()
	type walk struct {
		algo  Algo
		bl    *baseline
		seeds []int32
		warm  bool
	}
	var walks []walk
	var opts []rank.Options
	n := c.Source.NumSources()
	for _, algo := range []Algo{AlgoPageRank, AlgoTrustRank} {
		// The baselines walk the same uniform source transition and
		// differ only in teleport: PageRank's is uniform (no seeds).
		bl, skipped, seeds := &b.pr, &out.info.PageRankSkipped, []int32(nil)
		if algo == AlgoTrustRank {
			if len(trSeeds) == 0 {
				continue // every source is labeled spam: none to trust
			}
			bl, skipped, seeds = &b.tr, &out.info.TrustRankSkipped, trSeeds
		}
		if bl.current(c, seeds) {
			// Carried: like a skipped SRSR solve, it reports the residual
			// last measured and the zero iterations this build ran.
			*skipped = true
			stats := bl.stats
			stats.Iterations = 0
			out.sets = append(out.sets, solved{algo, bl.scores, stats, true, time.Now()})
			continue
		}
		opt := rank.Options{Alpha: b.Config.Alpha, Workers: workers, X0: bl.scores.Padded(n)}
		if seeds != nil {
			var err error
			if opt.Teleport, err = rank.TrustTeleport(n, seeds); err != nil {
				out.err = fmt.Errorf("server: %s: %w", algo, err)
				continue
			}
		}
		walks, opts = append(walks, walk{algo, bl, seeds, bl.scores != nil}), append(opts, opt)
	}
	if len(walks) == 0 {
		return out
	}
	out.info.BaselinesSwept = len(walks) == 2
	counts := c.Source.Counts
	err := rank.SolveSplit(rank.TransitionT(c.Source.Structure()), opts, func(j int, res *rank.Result) {
		w := walks[j]
		w.bl.scores, w.bl.stats, w.bl.rowPtr, w.bl.cols, w.bl.seeds = res.Scores, res.Stats, counts.RowPtr, counts.Cols, w.seeds
		out.sets = append(out.sets, solved{w.algo, res.Scores, res.Stats, w.warm, time.Now()})
	})
	if err != nil && out.err == nil {
		out.err = fmt.Errorf("server: baselines: %w", err)
	}
	return out
}

// current reports whether bl is already the fixed point for c's structure
// and seeds, so a build carries it.
func (bl *baseline) current(c Corpus, seeds []int32) bool {
	counts := c.Source.Counts
	return bl.scores != nil && SameArray(bl.rowPtr, counts.RowPtr) && SameArray(bl.cols, counts.Cols) &&
		len(bl.scores) == c.Source.NumSources() && slices.Equal(seeds, bl.seeds)
}

// TrustedSeeds picks the 10 non-spam sources with the most pages, ties to
// the lower ID — the stand-in for a hand-curated trust seed set, shared by
// the cold builder and the streaming refresh. It keeps the 10 best seen so
// far in order instead of sorting every source, so a refresh pays
// O(sources) for it.
func TrustedSeeds(sg *source.Graph, spam []int32) []int32 {
	const k = 10
	ex := make(map[int32]bool, len(spam))
	for _, s := range spam {
		ex[s] = true
	}
	pc := sg.PageCount
	best := make([]int32, 0, min(k, len(pc)))
	for i := range pc {
		id := int32(i)
		// IDs ascend, so on equal page counts the earlier source stays
		// ahead: a candidate must strictly beat the current worst.
		if (len(best) == k && pc[id] <= pc[best[k-1]]) || ex[id] {
			continue
		}
		if len(best) < k {
			best = append(best, id)
		} else {
			best[k-1] = id
		}
		for j := len(best) - 1; j > 0 && pc[best[j]] > pc[best[j-1]]; j-- {
			best[j], best[j-1] = best[j-1], best[j]
		}
	}
	return best
}

package stream

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"sourcerank/internal/core"
	"sourcerank/internal/durable"
	"sourcerank/internal/linalg"
	"sourcerank/internal/pagegraph"
	"sourcerank/internal/rank"
	"sourcerank/internal/server"
	"sourcerank/internal/source"
)

// Options configures a streaming Pipeline. The zero value of every
// numeric field selects the same default the cold builder
// (server.BuildSnapshot) uses, which is what the equivalence contract
// requires.
type Options struct {
	// Spam lists the pre-labeled spam source IDs seeding the proximity
	// walk. Empty skips SRSR, as in the cold builder.
	Spam []int32
	// Algos selects the score sets to maintain; nil means
	// server.DefaultAlgos.
	Algos []server.Algo
	// TopK throttled sources; 0 derives 2.7% of the current source
	// count at each refresh.
	TopK int
	// TrustedSeeds is the TrustRank seed count; 0 defaults to 10.
	TrustedSeeds int
	// Alpha, Tol, MaxIter, Workers mirror server.BuildConfig.
	Alpha   float64
	Tol     float64
	MaxIter int
	Workers int
	// Name labels the corpus in snapshot metadata.
	Name string
	// CompactEvery is the patched-structure-row threshold past which a
	// refresh folds the topology overlay into a fresh CSR; 0 defaults
	// to 256. Compaction never changes results, only lookup cost.
	CompactEvery int
	// WALDir, when non-empty, write-ahead-logs every batch into this
	// (existing) directory before applying it, and NewPipeline replays
	// the log over the base corpus on startup.
	WALDir string
	// FS is the filesystem the WAL commits through; nil selects the
	// real one. Chaos tests inject faults here.
	FS durable.FS
	// Store, when set, receives every refreshed snapshot via Publish.
	Store *server.Store
	// SlabDir, when non-empty, maintains the shared PageRank/TrustRank
	// transition operand Mᵀ as slab generations under this (existing)
	// directory instead of an in-heap CSR: each topology change commits
	// transition_t.gen<version>.slab through internal/durable's
	// atomic-rename protocol by recomputing only the dirty predecessor
	// rows and byte-copying every clean row from the previous generation,
	// and the solves stream the mapped file. Published scores are bitwise
	// identical to the in-heap pipeline's. Slab commits go through FS.
	SlabDir string
	// MaxResident, with SlabDir set, is the resident-set budget in bytes
	// of everything that reads the mapped generation, solves and rewrites
	// alike — row pointers, dense vectors and two release windows of
	// matrix entries (see linalg.SlabOpenOptions.MaxResident). Advisory;
	// <= 0 maps without release-behind.
	MaxResident int64
	// SlabPatchEntries bounds the dirty-row patch buffer of a generation
	// rewrite, in matrix entries; dirty rows are recomputed in ascending
	// chunks no larger than this. 0 defaults to 1<<20. Chunking never
	// changes the committed bytes, only the rewrite's memory ceiling.
	SlabPatchEntries int
}

func (o Options) algos() []server.Algo {
	if len(o.Algos) == 0 {
		return server.DefaultAlgos
	}
	return o.Algos
}

func (o Options) compactEvery() int {
	if o.CompactEvery <= 0 {
		return 256
	}
	return o.CompactEvery
}

func (o Options) topK(n int) int {
	if o.TopK > 0 {
		return o.TopK
	}
	return int(0.027*float64(n) + 0.5)
}

func (o Options) rankOptions(x0, tele linalg.Vector) rank.Options {
	return rank.Options{
		Alpha: o.Alpha, Tol: o.Tol, MaxIter: o.MaxIter, Workers: o.Workers,
		X0: x0, Teleport: tele,
	}
}

// RefreshStats reports what one Refresh actually did — which stages were
// skipped, how much state was dirty, and where the time went.
type RefreshStats struct {
	// Seq is the ingest sequence the snapshot reflects.
	Seq uint64
	// Version is the published snapshot version (0 when no Store).
	Version uint64
	// SolveSkipped: the SRSR stationary solve was replaced by a single
	// residual probe because nothing feeding it changed.
	SolveSkipped bool
	// ProximityCold: the spam-proximity walk ran cold (first refresh,
	// contested κ boundary, or Graded mode).
	ProximityCold bool
	// KappaChanged is the number of κ entries this refresh flipped.
	KappaChanged int
	// PageRankSkipped / TrustRankSkipped: the baseline solve reused the
	// previous vector because its operator (and, for TrustRank, its
	// seed set) was unchanged.
	PageRankSkipped  bool
	TrustRankSkipped bool
	// Compacted: the structure overlay was folded this refresh.
	Compacted bool
	// SlabRowsPatched / SlabRowsCopied count Mᵀ rows recomputed vs
	// byte-copied from the previous generation when this refresh rewrote
	// a transition slab generation (SlabDir mode only; both zero when the
	// mapped generation was already current).
	SlabRowsPatched int
	SlabRowsCopied  int
	// Emit, Solve, Publish, Total are wall times for the stages.
	Emit    time.Duration
	Solve   time.Duration
	Publish time.Duration
	Total   time.Duration
}

// Pipeline composes the streaming stack: an Ingestor (page graph +
// incremental source consensus), an optional write-ahead log, the warm
// SRSR refresh (core.PipelineRefresh), warm PageRank/TrustRank baseline
// solves sharing one transposed transition build, and delta-aware
// snapshot publication. All methods are safe for concurrent use; one
// mutex serializes ingest and refresh, while published snapshots are
// read lock-free as usual.
type Pipeline struct {
	mu  sync.Mutex
	opt Options
	ing *Ingestor
	wal *WAL

	st core.RefreshState // SRSR warm state

	// Baseline warm state. The uniform-weight baselines depend only on
	// the unweighted source topology, so everything here is keyed on the
	// ingestor's StructureVersion: mt (Mᵀ of the structure) is rebuilt,
	// and the retained PageRank/TrustRank vectors re-solved, only when
	// consensus edges appeared or vanished — count drift within existing
	// cells leaves their fixed points provably unchanged.
	mt      *linalg.CSR
	mtVer   uint64
	slab    *slabRefresher // non-nil in SlabDir mode; then mt stays nil
	prSc    linalg.Vector
	prStats linalg.IterStats
	prVer   uint64
	trSc    linalg.Vector
	trStats linalg.IterStats
	trVer   uint64
	trSeeds []int32

	sg *source.Graph // last emitted source graph
}

// NewPipeline builds the streaming pipeline over pg: full initial
// aggregation, then — when a WAL directory is configured — replay of
// every logged batch over it, restoring the pre-crash graph state
// exactly. pg is retained and mutated.
func NewPipeline(pg *pagegraph.Graph, opt Options) (*Pipeline, error) {
	ing, err := NewIngestor(pg, source.Options{Workers: opt.Workers})
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	p := &Pipeline{opt: opt, ing: ing}
	if opt.SlabDir != "" {
		p.slab = newSlabRefresher(opt)
		p.slab.pruneStale()
	}
	if opt.WALDir != "" {
		wal, batches, err := OpenWAL(opt.FS, opt.WALDir)
		if err != nil {
			return nil, err
		}
		for _, b := range batches {
			if err := ing.Apply(b); err != nil {
				return nil, fmt.Errorf("stream: replaying wal seq %d: %w", b.Seq, err)
			}
		}
		p.wal = wal
	}
	return p, nil
}

// LastSeq is the highest applied batch sequence number.
func (p *Pipeline) LastSeq() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ing.LastSeq()
}

// Stats returns cumulative ingest counters.
func (p *Pipeline) Stats() IngestStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ing.Stats()
}

// Ingestor exposes the underlying ingestor for equivalence tests. The
// caller must not mutate through it concurrently with Apply/Refresh.
func (p *Pipeline) Ingestor() *Ingestor { return p.ing }

// Kappa returns a copy of the current throttling vector (nil before the
// first SRSR refresh). The equivalence suite compares it bitwise against
// a cold rebuild's κ.
func (p *Pipeline) Kappa() []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.st.Kappa == nil {
		return nil
	}
	return slices.Clone(p.st.Kappa)
}

// Apply validates deltas as one atomic batch, assigns it the next
// sequence number, write-ahead-logs it (when configured), and commits it
// to the in-memory graphs. It returns the assigned sequence number; on
// error nothing was applied, though after a mid-crash the batch may
// still be in the log (recovery replays it, and the returned sequence
// lets callers reconcile what landed).
func (p *Pipeline) Apply(deltas []Delta) (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	seq := p.ing.LastSeq() + 1
	if p.wal != nil && p.wal.LastSeq() >= seq {
		// A pre-crash append survived without its commit; skip past it.
		seq = p.wal.LastSeq() + 1
	}
	b := Batch{Seq: seq, Deltas: deltas}
	st, err := p.ing.stage(b)
	if err != nil {
		return 0, err
	}
	if p.wal != nil {
		if err := p.wal.Append(b); err != nil {
			return 0, err
		}
	}
	p.ing.commit(b, st)
	return seq, nil
}

// Refresh folds all applied deltas into fresh score vectors and a new
// serving snapshot. Cost is proportional to the churn since the last
// refresh: only dirty consensus rows re-aggregate, the proximity walk
// and stationary solves warm-start from the previous vectors (skipping
// entirely when their inputs are unchanged), and the snapshot encoder
// reuses response bytes for unchanged entries.
func (p *Pipeline) Refresh() (*server.Snapshot, RefreshStats, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var stats RefreshStats
	t0 := time.Now()
	stats.Seq = p.ing.LastSeq()

	if p.slab != nil {
		// Capture the dirty Mᵀ rows before Emit consumes the pending set:
		// a changed source row invalidates the predecessor rows of both
		// its old and its new successors.
		p.ing.ForEachPendingStructureRow(func(r int32, old, next []int32) {
			p.slab.invalidate(old, next)
		})
	}
	sg := p.ing.Emit()
	stats.Compacted = p.ing.CompactStructure(p.opt.compactEvery())
	stats.Emit = time.Since(t0)
	p.sg = sg
	n := sg.NumSources()
	topK := p.opt.topK(n)
	sv := p.ing.StructureVersion()

	tSolve := time.Now()
	sets := make(map[server.Algo]*server.ScoreSet, len(p.opt.algos()))
	for _, algo := range p.opt.algos() {
		switch algo {
		case server.AlgoSRSR:
			if len(p.opt.Spam) == 0 {
				continue
			}
			res, info, err := core.PipelineRefresh(sg, p.ing.Structure(), core.PipelineConfig{
				Config:    core.Config{Alpha: p.opt.Alpha, Tol: p.opt.Tol, MaxIter: p.opt.MaxIter, Workers: p.opt.Workers},
				SpamSeeds: p.opt.Spam,
				TopK:      topK,
			}, &p.st)
			if err != nil {
				return nil, stats, fmt.Errorf("stream: srsr refresh: %w", err)
			}
			stats.SolveSkipped = info.SolveSkipped
			stats.ProximityCold = info.ProximityCold
			stats.KappaChanged = info.KappaChanged
			sets[algo] = server.NewScoreSet(res.Scores, res.Stats)
		case server.AlgoPageRank:
			if p.prSc != nil && p.prVer == sv && len(p.prSc) == n {
				stats.PageRankSkipped = true
			} else {
				mt, err := p.transition(sv, &stats)
				if err != nil {
					return nil, stats, err
				}
				res, err := rank.StationaryT(mt, p.opt.rankOptions(padded(p.prSc, n), nil))
				if err != nil {
					return nil, stats, fmt.Errorf("stream: pagerank refresh: %w", err)
				}
				p.prSc, p.prStats, p.prVer = res.Scores, res.Stats, sv
			}
			sets[algo] = server.NewScoreSet(p.prSc, p.prStats)
		case server.AlgoTrustRank:
			seeds := server.TrustedSeeds(sg, p.opt.TrustedSeeds, p.opt.Spam)
			if p.trSc != nil && p.trVer == sv && len(p.trSc) == n && slices.Equal(seeds, p.trSeeds) {
				stats.TrustRankSkipped = true
			} else {
				mt, err := p.transition(sv, &stats)
				if err != nil {
					return nil, stats, err
				}
				tele, err := rank.TrustTeleport(n, seeds)
				if err != nil {
					return nil, stats, fmt.Errorf("stream: trustrank refresh: %w", err)
				}
				res, err := rank.StationaryT(mt, p.opt.rankOptions(padded(p.trSc, n), tele))
				if err != nil {
					return nil, stats, fmt.Errorf("stream: trustrank refresh: %w", err)
				}
				p.trSc, p.trStats, p.trVer, p.trSeeds = res.Scores, res.Stats, sv, seeds
			}
			sets[algo] = server.NewScoreSet(p.trSc, p.trStats)
		default:
			return nil, stats, fmt.Errorf("stream: unknown algorithm %q", algo)
		}
	}
	stats.Solve = time.Since(tSolve)
	if len(sets) == 0 {
		return nil, stats, fmt.Errorf("stream: no score sets computed (srsr needs spam labels)")
	}

	tPub := time.Now()
	pg := p.ing.PageGraph()
	info := server.CorpusInfo{
		Name:        p.opt.Name,
		Pages:       pg.NumPages(),
		Links:       pg.NumLinks(),
		SpamLabeled: len(p.opt.Spam),
	}
	snap, err := server.NewSnapshot(info, sg.Labels, sg.PageCount, topK, sets, time.Now())
	if err != nil {
		return nil, stats, err
	}
	if p.opt.Store != nil {
		stats.Version = p.opt.Store.Publish(snap)
	}
	stats.Publish = time.Since(tPub)
	stats.Total = time.Since(t0)
	return snap, stats, nil
}

// transition resolves the shared Mᵀ operand for the baseline solves: the
// in-heap CSR by default, or the current slab generation in SlabDir mode
// (rewriting it first when the topology moved, with the patch/copy row
// accounting folded into stats).
func (p *Pipeline) transition(sv uint64, stats *RefreshStats) (*linalg.CSR, error) {
	if p.slab == nil {
		p.ensureTransition(sv)
		return p.mt, nil
	}
	mt, patched, copied, err := p.slab.ensure(p.ing.Structure(), sv)
	if err != nil {
		return nil, err
	}
	stats.SlabRowsPatched += patched
	stats.SlabRowsCopied += copied
	return mt, nil
}

// Close releases the resources a slab-backed pipeline holds open (the
// mapped transition generation); its operand must not be used after.
// Pipelines without SlabDir hold nothing and need no Close.
func (p *Pipeline) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.slab != nil {
		return p.slab.close()
	}
	return nil
}

// ensureTransition rebuilds the shared transposed transition matrix Mᵀ
// when the source topology's sparsity changed since it was built (Mᵀ
// weights rows uniformly, so count drift cannot alter it). PageRank and
// TrustRank differ only in teleport vector, so one build serves both.
func (p *Pipeline) ensureTransition(sv uint64) {
	if p.mt != nil && p.mtVer == sv {
		return
	}
	p.mt = rank.TransitionT(p.ing.Structure())
	p.mtVer = sv
}

// padded adapts a previous-shape vector to n entries (new sources start
// at zero mass; the solver renormalizes), preserving nil.
func padded(v linalg.Vector, n int) linalg.Vector {
	if v == nil {
		return nil
	}
	if len(v) >= n {
		return v[:n]
	}
	out := make(linalg.Vector, n)
	copy(out, v)
	return out
}

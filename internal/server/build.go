package server

import (
	"fmt"
	"time"

	"sourcerank/internal/core"
	"sourcerank/internal/linalg"
	"sourcerank/internal/pagegraph"
	"sourcerank/internal/rank"
	"sourcerank/internal/source"
)

// BuildConfig configures the offline snapshot computation.
type BuildConfig struct {
	// Algos selects which score sets to compute; nil means DefaultAlgos.
	// AlgoSRSR is skipped (not an error) when no spam labels are given,
	// since the proximity walk needs a seed set.
	Algos []Algo
	// Alpha is the mixing parameter for all walks; 0 defaults to 0.85.
	Alpha float64
	// TopK is the number of highest-proximity sources throttled fully;
	// 0 defaults to 2.7% of sources, the paper's WB2001 ratio.
	TopK int
	// TrustedSeeds is the TrustRank seed count; 0 defaults to 10. Seeds
	// are the non-spam sources with the most pages, as in cmd/srank.
	TrustedSeeds int
	// Tol, MaxIter, Workers bound the solvers (zero values use the
	// linalg defaults).
	Tol     float64
	MaxIter int
	Workers int
	// Precision selects the stationary-solve arithmetic for every
	// computed algorithm: the default linalg.Float64 reference path, or
	// linalg.Float32 for the bandwidth-oriented kernels (published scores
	// stay float64 either way; each ScoreSet records the precision that
	// produced it). The SRSR spam-proximity walk always runs float64, so
	// κ assignment is precision-invariant.
	Precision linalg.Precision
	// SlabDir, when set, routes the SRSR stationary solve through a
	// slab-backed operand under MaxResident instead of the in-heap CSR
	// (see core.Config.SlabDir); scores stay bitwise identical. The
	// source-level PageRank/TrustRank baselines always solve in heap —
	// their operand is the same size as the throttled one, so operators
	// bounding refresh RSS should restrict Algos to AlgoSRSR.
	SlabDir string
	// MaxResident, with SlabDir set, is the resident-set budget in bytes
	// of the slab-backed solve — row pointers, dense vectors and two
	// release windows of matrix entries (see
	// linalg.SlabOpenOptions.MaxResident). Advisory; <= 0 maps without
	// release-behind.
	MaxResident int64
	// Name labels the corpus in CorpusInfo.
	Name string
	// Extra injects precomputed score vectors (e.g. loaded with
	// linalg.ReadVectorFile) to serve alongside the computed sets. Each
	// vector must have one score per source.
	Extra map[Algo]linalg.Vector
	// WarmStart, if set, seeds each algorithm's solve from the previous
	// publish's vectors (see WarmStart). Vectors whose shape no longer
	// matches the source count are ignored, falling back to a cold
	// start; results match cold-start ranks within solver Tol either
	// way, since the fixed point does not depend on the start.
	WarmStart *WarmStart
	// OnWarmFallback, if set, observes each algorithm whose retained
	// warm-start vector was rejected by the shape guard (have entries
	// retained, want needed). Refresher surfaces the aggregate per
	// publish; this hook gives per-algorithm attribution.
	OnWarmFallback func(algo Algo, have, want int)
}

func (c BuildConfig) coreConfig() core.Config {
	return core.Config{Alpha: c.Alpha, Tol: c.Tol, MaxIter: c.MaxIter, Workers: c.Workers, Precision: c.Precision,
		SlabDir: c.SlabDir, MaxResident: c.MaxResident}
}

func (c BuildConfig) rankOptions(x0 linalg.Vector) rank.Options {
	return rank.Options{Alpha: c.Alpha, Tol: c.Tol, MaxIter: c.MaxIter, Workers: c.Workers, X0: x0, Precision: c.Precision}
}

// BuildSnapshot runs the offline stage: derive the source graph once,
// compute every requested algorithm's score vector over it, and index
// the results into an immutable Snapshot ready for Store.Publish.
func BuildSnapshot(pg *pagegraph.Graph, spam []int32, cfg BuildConfig) (*Snapshot, error) {
	sg, err := source.Build(pg, source.Options{})
	if err != nil {
		return nil, fmt.Errorf("server: building source graph: %w", err)
	}
	return BuildSnapshotFromSourceGraph(pg, sg, spam, cfg)
}

// BuildSnapshotFromSourceGraph is BuildSnapshot for callers that already
// hold the derived source graph (refreshers reuse it across publishes
// when only κ or the spam labels change).
func BuildSnapshotFromSourceGraph(pg *pagegraph.Graph, sg *source.Graph, spam []int32, cfg BuildConfig) (*Snapshot, error) {
	algos := cfg.Algos
	if len(algos) == 0 {
		algos = DefaultAlgos
	}
	topK := cfg.TopK
	if topK <= 0 {
		topK = int(0.027*float64(sg.NumSources()) + 0.5)
	}
	n := sg.NumSources()
	var proximity linalg.Vector
	// PageRank and TrustRank walk the same uniform source transition and
	// differ only in teleport, so Mᵀ is built once, by whichever runs first.
	var mt *linalg.CSR
	baselineT := func() *linalg.CSR {
		if mt == nil {
			mt = rank.TransitionT(sg.Structure())
		}
		return mt
	}
	sets := make(map[Algo]*ScoreSet, len(algos))
	for _, algo := range algos {
		x0 := cfg.WarmStart.vectorFor(algo, n)
		if x0 == nil && cfg.OnWarmFallback != nil && cfg.WarmStart != nil {
			if v := cfg.WarmStart.Scores[algo]; v != nil {
				cfg.OnWarmFallback(algo, len(v), n)
			}
		}
		start := time.Now()
		switch algo {
		case AlgoSRSR:
			if len(spam) == 0 {
				continue
			}
			ccfg := cfg.coreConfig()
			ccfg.X0 = x0
			res, err := core.PipelineFromSourceGraph(sg, core.PipelineConfig{
				Config:      ccfg,
				SpamSeeds:   spam,
				TopK:        topK,
				ProximityX0: cfg.WarmStart.proximityFor(n),
			})
			if err != nil {
				return nil, fmt.Errorf("server: srsr: %w", err)
			}
			proximity = res.Proximity
			sets[algo] = NewScoreSet(res.Scores, res.Stats)
		case AlgoPageRank:
			res, err := rank.StationaryT(baselineT(), cfg.rankOptions(x0))
			if err != nil {
				return nil, fmt.Errorf("server: pagerank: %w", err)
			}
			sets[algo] = NewScoreSet(res.Scores, res.Stats)
		case AlgoTrustRank:
			tele, err := rank.TrustTeleport(n, TrustedSeeds(sg, cfg.TrustedSeeds, spam))
			if err != nil {
				return nil, fmt.Errorf("server: trustrank: %w", err)
			}
			opt := cfg.rankOptions(x0)
			opt.Teleport = tele
			res, err := rank.StationaryT(baselineT(), opt)
			if err != nil {
				return nil, fmt.Errorf("server: trustrank: %w", err)
			}
			sets[algo] = NewScoreSet(res.Scores, res.Stats)
		default:
			return nil, fmt.Errorf("server: unknown algorithm %q", algo)
		}
		if ss := sets[algo]; ss != nil {
			ss.setSolve(time.Since(start), x0 != nil)
			ss.setPrecision(cfg.Precision)
		}
	}
	for algo, vec := range cfg.Extra {
		sets[algo] = NewScoreSet(vec, linalg.IterStats{Converged: true})
	}
	if len(sets) == 0 {
		return nil, fmt.Errorf("server: no score sets computed (srsr needs spam labels)")
	}
	info := CorpusInfo{
		Name:        cfg.Name,
		Pages:       pg.NumPages(),
		Links:       pg.NumLinks(),
		SpamLabeled: len(spam),
	}
	snap, err := NewSnapshot(info, sg.Labels, sg.PageCount, topK, sets, time.Now())
	if err != nil {
		return nil, err
	}
	snap.proximity = proximity
	return snap, nil
}

// TrustedSeeds picks the k (0 means 10) non-spam sources with the most
// pages, ties to the lower ID — the stand-in for a hand-curated trust seed
// set, shared by the cold builder and the streaming refresh. It keeps the
// k best seen so far in order instead of sorting every source, so a
// refresh pays O(sources) for it.
func TrustedSeeds(sg *source.Graph, k int, spam []int32) []int32 {
	if k <= 0 {
		k = 10
	}
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

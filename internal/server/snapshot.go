// Package server implements the online serving layer for Spam-Resilient
// SourceRank: score vectors are computed offline into an immutable
// Snapshot, published atomically to a Store, and queried over HTTP by
// cmd/srserve. Readers never block on recomputation — a background
// goroutine builds the next snapshot (e.g. with fresh spam labels or a
// new κ assignment) and hot-swaps it with a single atomic pointer store.
package server

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"

	"sourcerank/internal/linalg"
)

// Algo names a ranking algorithm served from a snapshot.
type Algo string

// The algorithms a snapshot can carry. SRSR is the paper's throttled
// model; PageRank and TrustRank are the source-level baselines it is
// compared against.
const (
	AlgoSRSR      Algo = "srsr"
	AlgoPageRank  Algo = "pagerank"
	AlgoTrustRank Algo = "trustrank"
)

// DefaultAlgos is the set BuildSnapshot computes when none is given.
var DefaultAlgos = []Algo{AlgoSRSR, AlgoPageRank, AlgoTrustRank}

// ScoreSet holds one algorithm's scores plus the precomputed rank index,
// so top-k queries slice a sorted array instead of sorting per request.
type ScoreSet struct {
	scores linalg.Vector
	// order and rank are resolved exactly once, through index: publishing
	// shares the outgoing snapshot's arrays when scores is its very vector
	// (see Snapshot.carry) and sorts otherwise; a set that is never
	// published sorts on first use. Read them through index() unless the
	// set is known to be published.
	indexOnce sync.Once
	order     []int32 // source IDs in descending score order, ties by ID
	rank      []int32 // rank[source] = position of source in order
	stats     linalg.IterStats
	// Solve observability, set by the snapshot builder.
	solveTime   time.Duration
	warmStarted bool
}

// NewScoreSet wraps a score vector for serving. The vector is retained
// (not copied); callers must not mutate it afterwards. The rank index is
// resolved when the set is published or first queried, so a vector the
// previous publish already indexed is never sorted again.
func NewScoreSet(scores linalg.Vector, stats linalg.IterStats) *ScoreSet {
	return &ScoreSet{scores: scores, stats: stats}
}

// index returns the rank index, sorting on the first call unless
// shareIndex got there first.
func (ss *ScoreSet) index() (order, rank []int32) {
	ss.indexOnce.Do(func() { ss.order, ss.rank = rankIndex(ss.scores) })
	return ss.order, ss.rank
}

// rankIndex orders source IDs by descending score, ties (−0 and +0
// included) by ascending ID, NaN last: a stable LSD radix sort over
// rankKey, 8 bits a pass from the identity permutation. Each key is
// computed once, with all eight digit histograms in the same pass; each
// pass scatters every (key, id) pair, as two parallel arrays, and a digit
// every key shares costs none. order and rank double as the IDs' scatter
// buffers, so beside its outputs the sort allocates one array of keys.
func rankIndex(scores linalg.Vector) (order, rank []int32) {
	n := len(scores)
	keys := make([]uint64, 2*n)
	ksrc, kdst := keys[:n], keys[n:]
	order, rank = make([]int32, n), make([]int32, n)
	isrc, idst := order, rank
	var c [8][256]int
	for i, s := range scores {
		k := rankKey(s)
		ksrc[i], isrc[i] = k, int32(i)
		for d := range c {
			c[d][byte(k>>(8*d))]++
		}
	}
	for d := range c {
		if n == 0 || c[d][byte(ksrc[0]>>(8*d))] == n {
			continue // a digit every key shares
		}
		for b, sum := 0, 0; b < 256; b++ {
			c[d][b], sum = sum, sum+c[d][b]
		}
		kd, ids := kdst[:n], idst[:n]
		for i, k := range ksrc {
			b := byte(k >> (8 * d))
			kd[c[d][b]], ids[c[d][b]] = k, isrc[i]
			c[d][b]++
		}
		ksrc, kdst, isrc, idst = kdst, ksrc, idst, isrc
	}
	order, rank = isrc, idst
	for pos, id := range order {
		rank[id] = int32(pos)
	}
	return order, rank
}

// rankKey maps a score to a key whose unsigned order is rankIndex's.
func rankKey(s float64) uint64 {
	u := math.Float64bits(s)
	switch {
	case s != s:
		return math.MaxUint64 // NaN, last
	case s >= 0: // +Inf first; −0 keyed as +0
		return math.MaxInt64 - u&math.MaxInt64
	}
	return u // negative: the sign bit puts it after +0, magnitude ascends
}

// shareIndex adopts from's rank index; the caller has established that
// both sets hold the same score vector. A set that already resolved its
// index keeps it (the two are equal anyway).
func (ss *ScoreSet) shareIndex(from *ScoreSet) {
	ss.indexOnce.Do(func() { ss.order, ss.rank = from.index() })
}

// NewScoreSetSolved is NewScoreSet with solve provenance attached. The
// replica sync path uses it to reconstruct a transferred snapshot whose
// solve ran on the builder, so /metrics on a replica reports the
// builder's convergence rather than zeros.
func NewScoreSetSolved(scores linalg.Vector, stats linalg.IterStats, solveTime time.Duration, warm bool) *ScoreSet {
	ss := NewScoreSet(scores, stats)
	ss.solveTime, ss.warmStarted = solveTime, warm
	return ss
}

// Stats reports the solver convergence of this score set.
func (ss *ScoreSet) Stats() linalg.IterStats { return ss.stats }

// SolveTime reports this set's share of its build's solve stage: the
// builder charges the sets in the order their solves completed, the first
// from the stage's start and each later one from the previous completion,
// so the shares partition the stage's wall time even when SRSR and the
// baselines solve at once (0 for injected/precomputed vectors).
func (ss *ScoreSet) SolveTime() time.Duration { return ss.solveTime }

// WarmStarted reports whether the solve started from the builder's
// retained state (a carried vector included) rather than cold.
func (ss *ScoreSet) WarmStarted() bool { return ss.warmStarted }

// ScoresView returns the underlying score vector, indexed by source ID,
// without copying. Callers must treat it as read-only: it is shared with
// every concurrent reader of the snapshot.
func (ss *ScoreSet) ScoresView() linalg.Vector { return ss.scores }

// CorpusInfo summarizes the corpus behind a snapshot.
type CorpusInfo struct {
	Name        string `json:"name"`
	Pages       int    `json:"pages"`
	Links       int64  `json:"links"`
	Sources     int    `json:"sources"`
	SpamLabeled int    `json:"spam_labeled"`
}

// Snapshot is an immutable, fully-indexed serving state. All fields are
// fixed before the snapshot is published; concurrent readers therefore
// need no locks. Version is assigned by Store.Publish.
type Snapshot struct {
	version uint64
	// parent is the version this snapshot was published over (0 for the
	// first publish), recording delta-refresh lineage: a streamed delta
	// publish's parent is the snapshot whose state it patched.
	parent  uint64
	builtAt time.Time
	corpus  CorpusInfo
	labels  []string
	// byLabel is resolved exactly once, through labelIndex, under the same
	// rule as ScoreSet's rank index: shared with the outgoing snapshot when
	// labels is its very array, built otherwise.
	byLabelOnce sync.Once
	byLabel     map[string]int32
	pageCount   []int
	kappaTopK   int
	sets        map[Algo]*ScoreSet
	algos       []Algo // the keys of sets, sorted
	// resp holds the pre-encoded hot-path response bodies. It is built
	// by Store.Publish (via finalize) before the snapshot becomes
	// visible to readers, and never mutated afterwards; nil on
	// snapshots that were never published.
	resp *respCache
}

// NewSnapshot assembles a snapshot from prepared parts. labels and sets
// are retained; callers must not mutate them afterwards.
//
// It refuses what the response renderer cannot render, so that every
// published snapshot answers every request from its publish-time text: a
// NaN or infinite score (Eq. 3 always gives a finite σ, so one is a
// fault, not a ranking; the error wraps linalg.ErrNonFinite), sources
// whose entry heads int32 offsets might not address, and a build time
// JSON cannot carry.
func NewSnapshot(corpus CorpusInfo, labels []string, pageCount []int, kappaTopK int, sets map[Algo]*ScoreSet, builtAt time.Time) (*Snapshot, error) {
	if len(sets) == 0 {
		return nil, fmt.Errorf("server: snapshot needs at least one score set")
	}
	size := 0
	for _, l := range labels {
		size += maxHeadLen + 6*len(l)
	}
	if size > math.MaxInt32 {
		return nil, fmt.Errorf("server: %d sources with labels this long are above what a snapshot can serve", len(labels))
	}
	if len(pageCount) != len(labels) {
		return nil, fmt.Errorf("server: %d page counts for %d sources", len(pageCount), len(labels))
	}
	if _, err := builtAt.MarshalJSON(); err != nil {
		return nil, fmt.Errorf("server: build time: %w", err)
	}
	algos := make([]Algo, 0, len(sets))
	for a := range sets {
		algos = append(algos, a)
	}
	slices.Sort(algos)
	for _, algo := range algos {
		scores := sets[algo].scores
		if len(scores) != len(labels) {
			return nil, fmt.Errorf("server: %s has %d scores for %d sources", algo, len(scores), len(labels))
		}
		for id, v := range scores {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("server: %s score of source %d is %v: %w", algo, id, v, linalg.ErrNonFinite)
			}
		}
	}
	corpus.Sources = len(labels)
	return &Snapshot{
		builtAt:   builtAt,
		corpus:    corpus,
		labels:    labels,
		pageCount: pageCount,
		kappaTopK: kappaTopK,
		sets:      sets,
		algos:     algos,
	}, nil
}

// labelIndex returns the label→ID map (first occurrence wins), building
// it on the first call unless shareLabelIndex got there first.
func (s *Snapshot) labelIndex() map[string]int32 {
	s.byLabelOnce.Do(func() {
		byLabel := make(map[string]int32, len(s.labels))
		for i, l := range s.labels {
			if _, dup := byLabel[l]; !dup {
				byLabel[l] = int32(i)
			}
		}
		s.byLabel = byLabel
	})
	return s.byLabel
}

// shareLabelIndex adopts from's label map; the caller has established
// that both snapshots hold the same label array.
func (s *Snapshot) shareLabelIndex(from *Snapshot) {
	s.byLabelOnce.Do(func() { s.byLabel = from.labelIndex() })
}

// Version is the store-assigned publish sequence number (0 until
// published).
func (s *Snapshot) Version() uint64 { return s.version }

// ParentVersion is the version that was being served when this snapshot
// was published — the snapshot whose state a streamed delta publish
// patched. 0 for the first publish (no lineage).
func (s *Snapshot) ParentVersion() uint64 { return s.parent }

// BuiltAt reports when the offline computation finished.
func (s *Snapshot) BuiltAt() time.Time { return s.builtAt }

// Corpus describes the corpus the snapshot was computed from.
func (s *Snapshot) Corpus() CorpusInfo { return s.corpus }

// KappaTopK is the number of fully-throttled sources used for SRSR.
func (s *Snapshot) KappaTopK() int { return s.kappaTopK }

// NumSources is the number of sources served.
func (s *Snapshot) NumSources() int { return len(s.labels) }

// LabelsView returns the source labels without copying. Callers must
// treat it as read-only: it is shared with every concurrent reader of
// the snapshot. The replica codec reads it to encode transfer frames,
// and the delta sync path threads it unchanged into the next snapshot
// so the pre-encoder's pointer-identity reuse keeps working.
func (s *Snapshot) LabelsView() []string { return s.labels }

// PageCountsView returns the per-source page counts without copying;
// read-only, same contract as LabelsView.
func (s *Snapshot) PageCountsView() []int { return s.pageCount }

// Algos lists the available algorithms in sorted order, without
// copying: read-only, same contract as LabelsView.
func (s *Snapshot) Algos() []Algo { return s.algos }

// Set returns the score set for algo, or nil.
func (s *Snapshot) Set(algo Algo) *ScoreSet { return s.sets[algo] }

// Resolve maps a path identifier — a numeric source ID or a source
// label — to a source ID.
func (s *Snapshot) Resolve(ident string) (int32, bool) {
	if id, err := strconv.Atoi(ident); err == nil {
		if id < 0 || id >= len(s.labels) {
			return 0, false
		}
		return int32(id), true
	}
	id, ok := s.labelIndex()[ident]
	return id, ok
}

// scoreRatio is /v1/compare's score_ratio of scores a and b: 0 when b
// is 0.
func scoreRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

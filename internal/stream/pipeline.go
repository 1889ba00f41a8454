package stream

import (
	"fmt"
	"sync"
	"time"

	"sourcerank/internal/durable"
	"sourcerank/internal/pagegraph"
	"sourcerank/internal/server"
	"sourcerank/internal/source"
)

// Options configures a streaming Pipeline. Every refresh builds its
// snapshot the way the cold builder (server.BuildSnapshot) does, with the
// zero value of every field the two share, which is what the equivalence
// contract requires.
type Options struct {
	// Spam lists the pre-labeled spam source IDs seeding the proximity
	// walk. Empty skips SRSR, as in the cold builder.
	Spam []int32
	// TopK throttled sources; 0 selects throttle.DefaultTopK of the
	// current source count at each refresh.
	TopK int
	// Workers bounds aggregation and solver parallelism.
	Workers int
	// Name labels the corpus in snapshot metadata.
	Name string
	// WALDir, when non-empty, write-ahead-logs every batch into this
	// (existing) directory before applying it, and NewPipeline replays
	// the log over the base corpus on startup.
	WALDir string
	// FS is the filesystem the WAL commits through; nil selects the
	// real one. Chaos tests inject faults here.
	FS durable.FS
	// Store, when set, receives every refreshed snapshot via Publish.
	Store *server.Store
}

// RefreshStats reports what one Refresh actually did — which stages were
// skipped, how much state was dirty, and where the time went.
type RefreshStats struct {
	// Seq is the ingest sequence the snapshot reflects.
	Seq uint64
	// Version is the published snapshot version (0 when no Store).
	Version uint64
	// BuildInfo is the builder's account of the solve stage: SolveSkipped,
	// ProximityCold and KappaChanged for SRSR, PageRankSkipped and
	// TrustRankSkipped for the baselines.
	server.BuildInfo
	// Emit, Solve, Publish, Total are wall times for the stages.
	Emit    time.Duration
	Solve   time.Duration
	Publish time.Duration
	Total   time.Duration
}

// Pipeline composes the streaming stack: an Ingestor (page graph +
// incremental source consensus), an optional write-ahead log, and a
// server.Builder — the one snapshot builder, whose retained state makes
// each refresh cost what the deltas changed — fed each emitted source
// graph, whose Structure is the previous one's very arrays while the
// sparsity holds (source.Incremental.Emit). All methods are safe for
// concurrent use; one mutex serializes ingest and refresh, while
// published snapshots are read lock-free as usual.
type Pipeline struct {
	mu      sync.Mutex
	opt     Options
	ing     *Ingestor
	wal     *WAL
	builder server.Builder
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
	p.builder.Config = server.BuildConfig{TopK: opt.TopK, Workers: opt.Workers, Name: opt.Name}
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
func (p *Pipeline) Kappa() []float64 { return p.builder.Kappa() }

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

	sg := p.ing.Emit()
	stats.Emit = time.Since(t0)

	tSolve := time.Now()
	snap, info, err := p.builder.Build(server.Corpus{Pages: p.ing.PageGraph(), Source: sg}, p.opt.Spam)
	if err != nil {
		return nil, stats, fmt.Errorf("stream: %w", err)
	}
	stats.BuildInfo = info
	stats.Solve = time.Since(tSolve)

	tPub := time.Now()
	if p.opt.Store != nil {
		stats.Version = p.opt.Store.Publish(snap)
	}
	stats.Publish = time.Since(tPub)
	stats.Total = time.Since(t0)
	return snap, stats, nil
}

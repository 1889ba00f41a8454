package stream

import (
	"errors"
	"fmt"
	"slices"

	"sourcerank/internal/pagegraph"
	"sourcerank/internal/source"
)

// ErrStaleSeq reports a batch whose sequence number is not past the
// ingestor's high-water mark — a replayed or duplicate batch.
var ErrStaleSeq = errors.New("stream: stale batch sequence")

// ErrRejected wraps every batch validation failure. A rejected batch
// leaves the ingestor's state untouched.
var ErrRejected = errors.New("stream: batch rejected")

// IngestStats counts applied work, for observability and the bench
// harness's churn accounting.
type IngestStats struct {
	Batches       int
	Deltas        int
	SourcesAdded  int
	PagesAdded    int
	EdgesAdded    int
	EdgesRemoved  int
	Touches       int
	RowsRewritten int
}

// Ingestor applies delta batches to a page graph and mirrors every
// mutation into the incremental source-graph maintainer, so only the
// consensus rows a batch actually touches re-aggregate. Batches are
// atomic: the whole batch is validated against the current state (plus
// the batch's own earlier deltas) before anything is applied, and any
// invalid delta rejects the batch with both graphs unchanged.
//
// Ingestor is not safe for concurrent use; Pipeline serializes access.
type Ingestor struct {
	pg      *pagegraph.Graph
	inc     *source.Incremental
	lastSeq uint64
	stats   IngestStats
}

// NewIngestor wraps pg, building the initial source-consensus state with
// a full aggregation. pg is retained and mutated by Apply; the caller
// must route every future mutation through the ingestor.
func NewIngestor(pg *pagegraph.Graph, opt source.Options) (*Ingestor, error) {
	inc, err := source.NewIncremental(pg, opt)
	if err != nil {
		return nil, err
	}
	return &Ingestor{pg: pg, inc: inc}, nil
}

// LastSeq is the highest applied batch sequence number (0 before any).
func (in *Ingestor) LastSeq() uint64 { return in.lastSeq }

// Stats returns cumulative ingest counters.
func (in *Ingestor) Stats() IngestStats { return in.stats }

// PageGraph exposes the mutated page graph (read-only for callers; the
// equivalence tests rebuild cold state from it).
func (in *Ingestor) PageGraph() *pagegraph.Graph { return in.pg }

// Emit returns the current source graph, recomputing only rows dirtied
// since the last emit (see source.Incremental.Emit).
func (in *Ingestor) Emit() *source.Graph { return in.inc.Emit() }

// StructureVersion counts sparsity-changing mutations of the source
// topology (see source.Incremental.StructureVersion).
func (in *Ingestor) StructureVersion() uint64 { return in.inc.StructureVersion() }

// staging is the validated shadow state of one batch: new sources and
// pages it introduces, plus copy-on-write out-link rows for every page
// whose links it edits. Nothing in it aliases mutable graph state, so
// discarding it on a validation error discards the batch.
type staging struct {
	baseSources int
	basePages   int
	newSources  []string
	newPages    []pagegraph.SourceID // owning source per staged page
	rows        map[pagegraph.PageID][]pagegraph.PageID
	rowOrder    []pagegraph.PageID // staging order of rows, for deterministic commit
	touches     int
}

func (st *staging) srcOK(s pagegraph.SourceID) bool {
	return s >= 0 && int(s) < st.baseSources+len(st.newSources)
}

func (st *staging) pageOK(p pagegraph.PageID) bool {
	return p >= 0 && int(p) < st.basePages+len(st.newPages)
}

// row returns the staged copy-on-write out-link row for p, creating it
// from the live graph (or empty, for pages the batch itself adds) on
// first touch.
func (st *staging) row(pg *pagegraph.Graph, p pagegraph.PageID) []pagegraph.PageID {
	if r, ok := st.rows[p]; ok {
		return r
	}
	var r []pagegraph.PageID
	if int(p) < st.basePages {
		r = slices.Clone(pg.OutLinks(p))
	}
	st.rows[p] = r
	st.rowOrder = append(st.rowOrder, p)
	return r
}

// stage validates b against the ingestor's current state and returns the
// batch's staged effects. The ingestor is not modified; every error
// wraps ErrRejected (or ErrStaleSeq for sequence regressions).
func (in *Ingestor) stage(b Batch) (*staging, error) {
	if b.Seq <= in.lastSeq {
		return nil, fmt.Errorf("%w: batch seq %d, already applied through %d", ErrStaleSeq, b.Seq, in.lastSeq)
	}
	st := &staging{
		baseSources: in.pg.NumSources(),
		basePages:   in.pg.NumPages(),
		rows:        make(map[pagegraph.PageID][]pagegraph.PageID),
	}
	for i, d := range b.Deltas {
		switch d.Op {
		case OpAddSource:
			st.newSources = append(st.newSources, d.Label)
		case OpAddPage:
			if !st.srcOK(d.Source) {
				return nil, fmt.Errorf("%w: delta %d: add-page to unknown source %d", ErrRejected, i, d.Source)
			}
			st.newPages = append(st.newPages, d.Source)
		case OpAddEdge:
			if !st.pageOK(d.From) || !st.pageOK(d.To) {
				return nil, fmt.Errorf("%w: delta %d: add-edge %d->%d references unknown page", ErrRejected, i, d.From, d.To)
			}
			st.rows[d.From] = append(st.row(in.pg, d.From), d.To)
		case OpRemoveEdge:
			if !st.pageOK(d.From) || !st.pageOK(d.To) {
				return nil, fmt.Errorf("%w: delta %d: remove-edge %d->%d references unknown page", ErrRejected, i, d.From, d.To)
			}
			r := st.row(in.pg, d.From)
			k := lastIndex(r, d.To)
			if k < 0 {
				return nil, fmt.Errorf("%w: delta %d: remove-edge %d->%d not present", ErrRejected, i, d.From, d.To)
			}
			st.rows[d.From] = slices.Delete(r, k, k+1)
		case OpTouchPage:
			if !st.pageOK(d.Page) {
				return nil, fmt.Errorf("%w: delta %d: touch of unknown page %d", ErrRejected, i, d.Page)
			}
			st.touches++
		default:
			return nil, fmt.Errorf("%w: delta %d: unknown op %d", ErrRejected, i, d.Op)
		}
	}
	return st, nil
}

// commit applies a previously validated staging to both graphs. It
// cannot fail: validation proved every id, and the incremental
// maintainer panics (bookkeeping corruption) rather than erroring.
func (in *Ingestor) commit(b Batch, st *staging) {
	for _, label := range st.newSources {
		pgID := in.pg.AddSource(label)
		incID := in.inc.AddSource(label)
		if pgID != incID {
			panic(fmt.Sprintf("stream: source id skew: pagegraph %d vs incremental %d", pgID, incID))
		}
	}
	for _, s := range st.newPages {
		in.pg.AddPage(s)
		in.inc.AddPage(s)
	}
	// Ascending page order keeps commits deterministic regardless of
	// delta interleaving within the batch.
	slices.Sort(st.rowOrder)
	for _, p := range st.rowOrder {
		row := st.rows[p]
		before := in.targetSources(in.pg.OutLinks(p))
		if err := in.pg.SetOutLinks(p, row); err != nil {
			panic(fmt.Sprintf("stream: committing validated row %d: %v", p, err))
		}
		after := in.targetSources(row)
		removed, added := diffSorted(before, after)
		in.inc.UpdatePage(in.pg.SourceOf(p), removed, added)
		in.stats.RowsRewritten++
	}
	in.lastSeq = b.Seq
	in.stats.Batches++
	in.stats.Deltas += len(b.Deltas)
	in.stats.SourcesAdded += len(st.newSources)
	in.stats.PagesAdded += len(st.newPages)
	in.stats.Touches += st.touches
	for _, d := range b.Deltas {
		switch d.Op {
		case OpAddEdge:
			in.stats.EdgesAdded++
		case OpRemoveEdge:
			in.stats.EdgesRemoved++
		}
	}
}

// Apply validates b atomically and, if every delta is valid, commits it.
// On error the ingestor is unchanged: unknown ids, removing an absent
// edge, an unknown op, or a non-advancing sequence number all reject the
// whole batch.
func (in *Ingestor) Apply(b Batch) error {
	st, err := in.stage(b)
	if err != nil {
		return err
	}
	in.commit(b, st)
	return nil
}

// targetSources maps a page's out-links to the sorted, deduplicated set
// of target sources — the unit the consensus aggregation counts (paper
// §3: one page contributes each target source at most once).
func (in *Ingestor) targetSources(links []pagegraph.PageID) []pagegraph.SourceID {
	if len(links) == 0 {
		return nil
	}
	out := make([]pagegraph.SourceID, len(links))
	for i, l := range links {
		out[i] = in.pg.SourceOf(l)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// diffSorted returns the elements only in before (removed) and only in
// after (added); both inputs are sorted and deduplicated.
func diffSorted(before, after []pagegraph.SourceID) (removed, added []pagegraph.SourceID) {
	i, j := 0, 0
	for i < len(before) && j < len(after) {
		switch {
		case before[i] < after[j]:
			removed = append(removed, before[i])
			i++
		case before[i] > after[j]:
			added = append(added, after[j])
			j++
		default:
			i++
			j++
		}
	}
	removed = append(removed, before[i:]...)
	added = append(added, after[j:]...)
	return removed, added
}

func lastIndex(s []pagegraph.PageID, v pagegraph.PageID) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == v {
			return i
		}
	}
	return -1
}

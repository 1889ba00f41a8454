package source

import (
	"fmt"
	"slices"

	"sourcerank/internal/linalg"
	"sourcerank/internal/pagegraph"
)

// Incremental maintains the source graph under page-level deltas without
// re-aggregating the whole page graph. It keeps per-source-row consensus
// counts; a page edit only touches the row of the page's owning source,
// and only touched rows re-normalize when the next Graph is emitted. The
// emitted Graph is byte-for-byte identical to Build over the same page
// graph — the streaming pipeline's equivalence contract — because every
// count and transition value is produced by the exact expressions Build
// uses (float64(count)/float64(total) over int64 counts, structural zero
// self-edges inserted in sorted position, dangling rows as pure
// self-loops).
//
// Incremental is not safe for concurrent use; the streaming pipeline
// serializes all mutations.
type Incremental struct {
	opt Options
	n   int

	// labels is append-only, so emitted Labels slices (labels[:n:n])
	// share one backing array until growth reallocates it; downstream
	// response caches key fragment reuse on that pointer stability.
	labels    []string
	pageCount []int
	pcDirty   bool
	pcLast    []int // PageCount slice of the last emitted Graph

	rows      []incRow
	dirtyRows []int32
	numEdges  int64
	changed   bool   // any Counts/T content change since last emit
	structVer uint64 // bumped on every sparsity-changing mutation
	emitVer   uint64 // structVer at the last emit

	prev *Graph
}

// incRow is one source row: sorted consensus counts plus the transition
// row derived from them, recomputed when the row is dirty (only dirty rows
// read it; the emitted T carries every clean row).
type incRow struct {
	cols    []int32
	cnt     []int64
	total   int64
	hasSelf bool
	tcols   []int32
	tvals   []float64
	dirty   bool
}

// NewIncremental builds the initial source graph from pg with Build and
// explodes it into incrementally maintainable row state. The returned
// maintainer assumes every future page-graph mutation is reported to it
// via AddSource/AddPage/UpdatePage.
func NewIncremental(pg *pagegraph.Graph, opt Options) (*Incremental, error) {
	sg, err := Build(pg, opt)
	if err != nil {
		return nil, err
	}
	n := sg.NumSources()
	inc := &Incremental{
		opt:       opt,
		n:         n,
		labels:    append(make([]string, 0, n+16), sg.Labels...),
		pageCount: append([]int(nil), sg.PageCount...),
		pcLast:    sg.PageCount,
		rows:      make([]incRow, n),
		numEdges:  sg.NumEdges,
		prev:      sg,
	}
	sg.Labels = inc.labels[:n:n]
	for r := 0; r < n; r++ {
		row := &inc.rows[r]
		cols, vals := sg.Counts.Row(r)
		row.cols = append([]int32(nil), cols...)
		row.cnt = make([]int64, len(vals))
		for k, v := range vals {
			c := int64(v)
			row.cnt[k] = c
			row.total += c
			if cols[k] == int32(r) {
				row.hasSelf = true
			}
		}
	}
	return inc, nil
}

// AddSource registers a new source. Until pages link to or from it, its
// transition row is the dangling pure self-loop Build emits.
func (inc *Incremental) AddSource(label string) int32 {
	id := int32(inc.n)
	inc.labels = append(inc.labels, label)
	inc.pageCount = append(inc.pageCount, 0)
	inc.rows = append(inc.rows, incRow{})
	inc.n++
	inc.structVer++
	inc.markDirty(id)
	inc.changed = true
	inc.pcDirty = true
	return id
}

// StructureVersion counts mutations that changed the unweighted source
// topology: source additions and consensus edges appearing or vanishing.
// Count bumps within existing cells do not advance it. While it holds
// still, Emit shares the previous Counts' RowPtr and Cols, so the emitted
// Graph's Structure is the same pair of arrays: operators that depend
// only on the sparsity — the uniform-transition baselines and the
// spam-proximity walk — have provably unchanged fixed points, and their
// consumers skip the solves on that array identity.
func (inc *Incremental) StructureVersion() uint64 { return inc.structVer }

// AddPage records a new page in source s. It panics on an unknown
// source, mirroring pagegraph.AddPage; the streaming layer validates
// batches before reporting them here.
func (inc *Incremental) AddPage(s pagegraph.SourceID) {
	if s < 0 || int(s) >= inc.n {
		panic(fmt.Sprintf("source: AddPage to unknown source %d", s))
	}
	inc.pageCount[s]++
	inc.pcDirty = true
}

// UpdatePage records that a page owned by source s changed its deduped
// target-source set: removed lists sources it no longer links into,
// added lists sources it newly links into. Both must reflect a real
// page-graph transition — removing a target no unique page supports
// panics, as that means the caller's bookkeeping has already diverged
// from the page graph.
func (inc *Incremental) UpdatePage(s pagegraph.SourceID, removed, added []pagegraph.SourceID) {
	if s < 0 || int(s) >= inc.n {
		panic(fmt.Sprintf("source: UpdatePage for unknown source %d", s))
	}
	for _, t := range removed {
		inc.applyDelta(s, t, -1)
	}
	for _, t := range added {
		inc.applyDelta(s, t, +1)
	}
}

func (inc *Incremental) applyDelta(r, c pagegraph.SourceID, d int64) {
	if c < 0 || int(c) >= inc.n {
		panic(fmt.Sprintf("source: delta targets unknown source %d", c))
	}
	row := &inc.rows[r]
	k, found := slices.BinarySearch(row.cols, c)
	switch {
	case found:
		row.cnt[k] += d
		row.total += d
		if row.cnt[k] < 0 {
			panic(fmt.Sprintf("source: consensus count (%d,%d) underflow", r, c))
		}
		if row.cnt[k] == 0 {
			row.cols = slices.Delete(row.cols, k, k+1)
			row.cnt = slices.Delete(row.cnt, k, k+1)
			if c == r {
				row.hasSelf = false
			}
			inc.numEdges--
			inc.structVer++
		}
	case d > 0:
		row.cols = slices.Insert(row.cols, k, c)
		row.cnt = slices.Insert(row.cnt, k, d)
		row.total += d
		if c == r {
			row.hasSelf = true
		}
		inc.numEdges++
		inc.structVer++
	default:
		panic(fmt.Sprintf("source: removing absent consensus edge (%d,%d)", r, c))
	}
	inc.markDirty(r)
	inc.changed = true
}

func (inc *Incremental) markDirty(r int32) {
	if !inc.rows[r].dirty {
		inc.rows[r].dirty = true
		inc.dirtyRows = append(inc.dirtyRows, r)
	}
}

// rebuildT recomputes row r's cached transition row with Build's exact
// value expressions and self-edge placement.
func (inc *Incremental) rebuildT(r int32) {
	row := &inc.rows[r]
	nnz := len(row.cols)
	if nnz == 0 {
		row.tcols = append(row.tcols[:0], r)
		row.tvals = append(row.tvals[:0], 1)
		return
	}
	insertSelf := !row.hasSelf
	row.tcols = row.tcols[:0]
	row.tvals = row.tvals[:0]
	var w float64
	if inc.opt.Weighting == Uniform {
		w = 1 / float64(nnz)
	}
	total := float64(row.total)
	for k, col := range row.cols {
		if insertSelf && col > r {
			row.tcols = append(row.tcols, r)
			row.tvals = append(row.tvals, 0)
			insertSelf = false
		}
		row.tcols = append(row.tcols, col)
		if inc.opt.Weighting == Uniform {
			row.tvals = append(row.tvals, w)
		} else {
			row.tvals = append(row.tvals, float64(row.cnt[k])/total)
		}
	}
	if insertSelf {
		row.tcols = append(row.tcols, r)
		row.tvals = append(row.tvals, 0)
	}
}

// Emit assembles the current state into an immutable Graph from the
// previous emit's: it recomputes only rows dirtied since then, writes
// them from row state and bulk-copies every run of clean rows. While the
// structure version holds (a count drift), Counts and T keep the previous
// RowPtr and Cols arrays and only their values are new, which is what
// lets core rewrite SRSR's retained Jacobi operand in place and carry
// everything read from Structure. When nothing changed it returns the
// previous Graph pointer unchanged (core.PipelineRefresh sees the T it
// retained and only probes the previous solve); when only
// page counts changed it shares the previous Counts and T matrices.
// Callers must treat every emitted Graph as immutable.
func (inc *Incremental) Emit() *Graph {
	if !inc.changed {
		if !inc.pcDirty {
			return inc.prev
		}
		pc := append([]int(nil), inc.pageCount...)
		sg := &Graph{
			Labels:    inc.labels[:inc.n:inc.n],
			Counts:    inc.prev.Counts,
			T:         inc.prev.T,
			NumEdges:  inc.prev.NumEdges,
			PageCount: pc,
		}
		inc.pcLast, inc.pcDirty = pc, false
		inc.prev = sg
		return sg
	}
	n := inc.n
	dirty := inc.dirtyRows
	slices.Sort(dirty)
	for _, r := range dirty {
		inc.rebuildT(r)
		inc.rows[r].dirty = false
	}
	same := inc.structVer == inc.emitVer
	counts := inc.emitMatrix(inc.prev.Counts, dirty, same, func(row *incRow) []int32 { return row.cols },
		func(row *incRow, vals []float64) {
			for k, c := range row.cnt {
				vals[k] = float64(c)
			}
		})
	trans := inc.emitMatrix(inc.prev.T, dirty, same, func(row *incRow) []int32 { return row.tcols },
		func(row *incRow, vals []float64) { copy(vals, row.tvals) })
	inc.dirtyRows = dirty[:0]
	inc.emitVer = inc.structVer
	pc := inc.pcLast
	if inc.pcDirty {
		pc = append([]int(nil), inc.pageCount...)
	}
	sg := &Graph{
		Labels:    inc.labels[:n:n],
		Counts:    counts,
		T:         trans,
		NumEdges:  inc.numEdges,
		PageCount: pc,
	}
	inc.pcLast, inc.pcDirty = pc, false
	inc.changed = false
	inc.prev = sg
	return sg
}

// emitMatrix assembles one emitted matrix from prev, the same matrix of
// the previous emit, and the sorted dirty rows: each run of clean rows is
// one bulk copy of prev's arrays, and each dirty row is written from row
// state, its columns from cols and its values by vals. With the sparsity
// unchanged since that emit (same), RowPtr and Cols are prev's own
// arrays, which nothing writes, and only Vals is new.
func (inc *Incremental) emitMatrix(prev *linalg.CSR, dirty []int32, same bool, cols func(*incRow) []int32, vals func(*incRow, []float64)) *linalg.CSR {
	n := inc.n
	m := &linalg.CSR{Rows: n, ColsN: n, RowPtr: prev.RowPtr, Cols: prev.Cols}
	if !same {
		m.RowPtr = make([]int64, n+1)
		next := 0 // dirty[next] is the first dirty row at or after r
		for r := 0; r < n; r++ {
			if next < len(dirty) && int(dirty[next]) == r {
				m.RowPtr[r+1] = m.RowPtr[r] + int64(len(cols(&inc.rows[r])))
				next++
			} else {
				m.RowPtr[r+1] = m.RowPtr[r] + prev.RowPtr[r+1] - prev.RowPtr[r]
			}
		}
		m.Cols = make([]int32, m.RowPtr[n])
	}
	m.Vals = make([]float64, m.RowPtr[n])
	clean := 0 // the first row not yet written
	copyClean := func(hi int) {
		if hi = min(hi, prev.Rows); hi > clean {
			lo, plo, phi := m.RowPtr[clean], prev.RowPtr[clean], prev.RowPtr[hi]
			if !same {
				copy(m.Cols[lo:], prev.Cols[plo:phi])
			}
			copy(m.Vals[lo:], prev.Vals[plo:phi])
		}
	}
	for _, r := range dirty {
		copyClean(int(r))
		row, lo := &inc.rows[r], m.RowPtr[r]
		if !same {
			copy(m.Cols[lo:], cols(row))
		}
		vals(row, m.Vals[lo:m.RowPtr[r+1]])
		clean = int(r) + 1
	}
	copyClean(n)
	return m
}

// Package source derives the source-level view of the Web from the page
// graph (paper §3.1–3.2): pages grouped into sources, source edges
// weighted either uniformly (the straw-man "SourceRank" baseline) or by
// source consensus — the number of unique pages in the originating source
// that link into the target source — which is the first spam-resilience
// layer of the paper's model.
package source

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"sourcerank/internal/graph"
	"sourcerank/internal/linalg"
	"sourcerank/internal/pagegraph"
)

// Weighting selects how source-edge strengths are derived from page links.
type Weighting int

const (
	// Consensus weights an edge (s_i, s_j) by the number of unique pages
	// in s_i linking into s_j (paper §3.2), then row-normalizes.
	Consensus Weighting = iota
	// Uniform gives every distinct out-edge of s_i the weight 1/o(s_i)
	// (paper §3.1), the PageRank-style baseline over the source graph.
	Uniform
)

// String implements fmt.Stringer.
func (w Weighting) String() string {
	switch w {
	case Consensus:
		return "consensus"
	case Uniform:
		return "uniform"
	default:
		return fmt.Sprintf("Weighting(%d)", int(w))
	}
}

// Options configures source-graph construction. The zero value matches
// the paper's Spam-Resilient SourceRank setup: consensus weighting with
// mandatory self-edges.
type Options struct {
	Weighting Weighting
	// Workers bounds aggregation parallelism; <= 0 selects GOMAXPROCS.
	// The output is identical for every worker count.
	Workers int
}

// Graph is the derived source-level graph.
type Graph struct {
	// Labels holds each source's label, aligned with the page graph's
	// source IDs.
	Labels []string
	// Counts holds the raw consensus counts w(s_i, s_j): unique pages of
	// s_i linking into s_j, including the intra-source diagonal. It is
	// populated for both weightings (Uniform only uses its sparsity).
	Counts *linalg.CSR
	// T is the row-stochastic transition matrix (the paper's T or T'
	// depending on Options.Weighting), every row augmented with the
	// self-edge of §3.3 — a structural zero where no page link made one —
	// so influence throttling has a diagonal to act on. Every row sums to
	// 1: sources with no out-edges become pure self-loops.
	T *linalg.CSR
	// NumEdges counts the distinct source edges derived from page links
	// (including intra-source self-edges that arise from real page
	// links, excluding artificially added ones). This matches the edge
	// accounting of the paper's Table 1.
	NumEdges int64
	// PageCount holds the number of pages per source.
	PageCount []int
}

// ErrEmpty reports an attempt to build a source graph from a page graph
// with no sources.
var ErrEmpty = errors.New("source: page graph has no sources")

// Build derives the source graph from pg under the given options, one
// source row at a time with a sparse accumulator:
//
//  1. a counting sort groups the pages by owning source (ascending page
//     order within a source), and the source rows are split into one
//     contiguous range per worker, balanced by out-link count;
//  2. each worker builds its rows in turn: a page-stamped marker dedupes
//     each page's target sources, a dense counter with a touched list
//     counts the pages per target source, and the sorted touched list
//     becomes the row's columns;
//  3. Counts and T are written directly in CSR form, one contiguous block
//     per worker.
//
// The counts are integers and every row's columns come out sorted, so the
// output is byte-for-byte identical to BuildSerial for every worker count
// (the determinism tests assert this), and callers may treat Build and
// BuildSerial as interchangeable.
func Build(pg *pagegraph.Graph, opt Options) (*Graph, error) {
	n := pg.NumSources()
	if n == 0 {
		return nil, ErrEmpty
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)

	// Counting sort of the pages by source. rowLinks[r] ends up as the
	// out-link total of the rows before r, the cost model for the ranges.
	numPages := pg.NumPages()
	pageCount := make([]int, n)
	rowLinks := make([]int64, n+1)
	for p := 0; p < numPages; p++ {
		s := pg.SourceOf(pagegraph.PageID(p))
		pageCount[s]++
		rowLinks[s+1] += int64(len(pg.OutLinks(pagegraph.PageID(p))))
	}
	pageStart := make([]int, n+1)
	for s, c := range pageCount {
		pageStart[s+1] = pageStart[s] + c
		rowLinks[s+1] += rowLinks[s]
	}
	byRow := make([]pagegraph.PageID, numPages)
	fill := slices.Clone(pageStart[:n])
	for p := 0; p < numPages; p++ {
		s := pg.SourceOf(pagegraph.PageID(p))
		byRow[fill[s]] = pagegraph.PageID(p)
		fill[s]++
	}
	bounds := make([]int, workers+1)
	bounds[workers] = n
	row := 0
	for w := 1; w < workers; w++ {
		target := rowLinks[n] * int64(w) / int64(workers)
		for row < n && rowLinks[row] < target {
			row++
		}
		bounds[w] = row
	}

	type rowsOut struct {
		cols     []int32 // destination columns, row-major
		cnt      []int32 // consensus counts, aligned with cols
		rowNNZ   []int32 // entries per row in this range
		rowTotal []int64 // per-row count totals (consensus denominators)
		hasSelf  []bool  // per-row: diagonal entry present
	}
	outs := make([]rowsOut, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rA, rB := bounds[w], bounds[w+1]
			o := rowsOut{
				rowNNZ:   make([]int32, rB-rA),
				rowTotal: make([]int64, rB-rA),
				hasSelf:  make([]bool, rB-rA),
			}
			mark := make([]pagegraph.PageID, n) // mark[t] == p+1: page p already voted for t
			cnt := make([]int32, n)
			var touched []int32
			for r := rA; r < rB; r++ {
				touched = touched[:0]
				for _, p := range byRow[pageStart[r]:pageStart[r+1]] {
					for _, q := range pg.OutLinks(p) {
						t := pg.SourceOf(q)
						if mark[t] == p+1 {
							continue
						}
						mark[t] = p + 1
						if cnt[t] == 0 {
							touched = append(touched, t)
						}
						cnt[t]++
					}
				}
				slices.Sort(touched)
				i := r - rA
				o.rowNNZ[i] = int32(len(touched))
				o.hasSelf[i] = cnt[r] > 0
				for _, t := range touched {
					o.cols = append(o.cols, t)
					o.cnt = append(o.cnt, cnt[t])
					o.rowTotal[i] += int64(cnt[t])
					cnt[t] = 0
				}
			}
			outs[w] = o
		}(w)
	}
	wg.Wait()

	sg := &Graph{
		Labels:    make([]string, n),
		PageCount: pageCount,
	}
	for s := 0; s < n; s++ {
		sg.Labels[s] = pg.SourceLabel(pagegraph.SourceID(s))
	}

	// Assemble Counts and T directly in CSR form. Row pointers come from
	// the per-range row widths; the value arrays are filled in parallel,
	// one contiguous block per worker range.
	countPtr := make([]int64, n+1)
	transPtr := make([]int64, n+1)
	for w := 0; w < workers; w++ {
		o := &outs[w]
		rA := bounds[w]
		for i, nnz := range o.rowNNZ {
			r := rA + i
			countPtr[r+1] = int64(nnz)
			sg.NumEdges += int64(nnz)
			switch {
			case nnz == 0:
				transPtr[r+1] = 1 // dangling source: pure self-loop
			case !o.hasSelf[i]:
				transPtr[r+1] = int64(nnz) + 1 // structural zero self-edge
			default:
				transPtr[r+1] = int64(nnz)
			}
		}
	}
	for r := 0; r < n; r++ {
		countPtr[r+1] += countPtr[r]
		transPtr[r+1] += transPtr[r]
	}
	counts := &linalg.CSR{
		Rows: n, ColsN: n,
		RowPtr: countPtr,
		Cols:   make([]int32, countPtr[n]),
		Vals:   make([]float64, countPtr[n]),
	}
	trans := &linalg.CSR{
		Rows: n, ColsN: n,
		RowPtr: transPtr,
		Cols:   make([]int32, transPtr[n]),
		Vals:   make([]float64, transPtr[n]),
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			o := &outs[w]
			rA, rB := bounds[w], bounds[w+1]
			pos := 0
			for r := rA; r < rB; r++ {
				nnz := int(o.rowNNZ[r-rA])
				cols := o.cols[pos : pos+nnz]
				cnts := o.cnt[pos : pos+nnz]
				pos += nnz
				copy(counts.Cols[countPtr[r]:], cols)
				cv := counts.Vals[countPtr[r]:countPtr[r+1]]
				for k, c := range cnts {
					cv[k] = float64(c)
				}
				tc := trans.Cols[transPtr[r]:transPtr[r+1]]
				tv := trans.Vals[transPtr[r]:transPtr[r+1]]
				if nnz == 0 {
					tc[0], tv[0] = int32(r), 1
					continue
				}
				insertSelf := !o.hasSelf[r-rA]
				var uw float64
				if opt.Weighting == Uniform {
					uw = 1 / float64(nnz)
				}
				total := float64(o.rowTotal[r-rA])
				j := 0
				for k, col := range cols {
					if insertSelf && int(col) > r && j == k {
						tc[j], tv[j] = int32(r), 0
						j++
					}
					tc[j] = col
					if opt.Weighting == Uniform {
						tv[j] = uw
					} else {
						tv[j] = float64(cnts[k]) / total
					}
					j++
				}
				if insertSelf && j == nnz {
					tc[j], tv[j] = int32(r), 0
				}
			}
		}(w)
	}
	wg.Wait()
	sg.Counts, sg.T = counts, trans
	return sg, nil
}

// BuildSerial is the reference single-threaded implementation of Build,
// retained for the determinism tests and the benchmark harness's serial
// baseline. Build produces byte-for-byte identical Counts and T.
func BuildSerial(pg *pagegraph.Graph, opt Options) (*Graph, error) {
	n := pg.NumSources()
	if n == 0 {
		return nil, ErrEmpty
	}
	// counts[si][sj] = number of unique pages in si linking into sj.
	counts := make([]map[pagegraph.SourceID]int64, n)
	for i := range counts {
		counts[i] = make(map[pagegraph.SourceID]int64)
	}
	targetSources := map[pagegraph.SourceID]bool{}
	for p := 0; p < pg.NumPages(); p++ {
		out := pg.OutLinks(pagegraph.PageID(p))
		if len(out) == 0 {
			continue
		}
		for k := range targetSources {
			delete(targetSources, k)
		}
		for _, q := range out {
			targetSources[pg.SourceOf(q)] = true
		}
		si := pg.SourceOf(pagegraph.PageID(p))
		for sj := range targetSources {
			counts[si][sj]++
		}
	}

	sg := &Graph{
		Labels:    make([]string, n),
		PageCount: pg.PageCounts(),
	}
	for s := 0; s < n; s++ {
		sg.Labels[s] = pg.SourceLabel(pagegraph.SourceID(s))
		sg.NumEdges += int64(len(counts[s]))
	}

	countEntries := make([]linalg.Entry, 0, sg.NumEdges)
	transEntries := make([]linalg.Entry, 0, sg.NumEdges+int64(n))
	for si := 0; si < n; si++ {
		row := counts[si]
		var total int64
		for _, c := range row {
			total += c
		}
		for sj, c := range row {
			countEntries = append(countEntries, linalg.Entry{Row: si, Col: int(sj), Val: float64(c)})
		}
		hasSelf := row[pagegraph.SourceID(si)] > 0
		switch {
		case total == 0:
			// Dangling source: all mass stays on the self-edge.
			transEntries = append(transEntries, linalg.Entry{Row: si, Col: si, Val: 1})
		case opt.Weighting == Uniform:
			deg := len(row)
			w := 1 / float64(deg)
			for sj := range row {
				transEntries = append(transEntries, linalg.Entry{Row: si, Col: int(sj), Val: w})
			}
			if !hasSelf {
				transEntries = append(transEntries, linalg.Entry{Row: si, Col: si, Val: 0})
			}
		default: // Consensus
			for sj, c := range row {
				transEntries = append(transEntries, linalg.Entry{Row: si, Col: int(sj), Val: float64(c) / float64(total)})
			}
			if !hasSelf {
				transEntries = append(transEntries, linalg.Entry{Row: si, Col: si, Val: 0})
			}
		}
	}
	var err error
	sg.Counts, err = linalg.NewCSR(n, n, countEntries)
	if err != nil {
		return nil, fmt.Errorf("source: building counts: %w", err)
	}
	sg.T, err = linalg.NewCSR(n, n, transEntries)
	if err != nil {
		return nil, fmt.Errorf("source: building transition: %w", err)
	}
	return sg, nil
}

// NumSources returns the number of sources.
func (sg *Graph) NumSources() int { return len(sg.Labels) }

// Structure returns the unweighted source graph (distinct derived edges
// only, no artificial self-edges), used by the spam-proximity walk which
// runs on the reversed source topology, and by the PageRank/TrustRank
// baselines. It is the sparsity of Counts, whose rows are already
// strictly increasing, so the graph aliases its RowPtr and Cols: nothing
// writes them (Incremental.Emit makes new arrays or shares immutable
// ones), and two graphs whose Counts share both arrays have one structure.
func (sg *Graph) Structure() *graph.Graph {
	g, err := graph.FromParts(sg.Counts.Rows, sg.Counts.RowPtr, sg.Counts.Cols)
	if err != nil {
		panic(fmt.Sprintf("source: counts structure: %v", err))
	}
	return g
}

// Validate checks that T is row-stochastic and structurally sound.
func (sg *Graph) Validate() error {
	if err := sg.T.Validate(); err != nil {
		return err
	}
	if err := sg.Counts.Validate(); err != nil {
		return err
	}
	for i := 0; i < sg.T.Rows; i++ {
		s := sg.T.RowSum(i)
		if s < 1-1e-9 || s > 1+1e-9 {
			return fmt.Errorf("source: row %d sums to %v, want 1", i, s)
		}
	}
	return nil
}

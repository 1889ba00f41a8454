package linalg

// CSR32 is the float32-valued mirror of a CSR matrix: it shares the
// source matrix's index arrays (RowPtr, Cols) and stores only the values
// at half width. The sparsity structure is therefore identical by
// construction, and the memory cost of the mirror is 4·NNZ bytes on top
// of the shared indices. The float32 fused kernels (fused32.go) iterate
// over it; everything else in the pipeline keeps using the float64 CSR.
type CSR32 struct {
	Rows   int
	ColsN  int
	RowPtr []int64 // shared with the source CSR; do not mutate
	Cols   []int32 // shared with the source CSR; do not mutate
	Vals   []float32

	// res is non-nil when the arrays alias a memory-mapped slab opened
	// under a residency budget (see slab.go). Mirrors CSR.res.
	res *slabResidency
}

// NewCSR32 narrows m's values entrywise (round to nearest even), sharing
// its index arrays. m must not be mutated afterwards (CSR is immutable by
// convention already).
func NewCSR32(m *CSR) *CSR32 {
	vals := make([]float32, len(m.Vals))
	for i, v := range m.Vals {
		vals[i] = float32(v)
	}
	return &CSR32{Rows: m.Rows, ColsN: m.ColsN, RowPtr: m.RowPtr, Cols: m.Cols, Vals: vals}
}

// NNZ returns the number of stored nonzeros.
func (m *CSR32) NNZ() int { return len(m.Vals) }

// csr32ColBlockCols is the column width of one cache block in the
// blocked entry layout: 1<<16 float32 source-vector entries = 256 KiB,
// sized so the slice of src a block gathers from stays resident in L2
// while a stripe streams its entries. Variable so tests can force
// multi-block layouts on small fixtures.
var csr32ColBlockCols = 1 << 16

// csr32BlockedMinRun gates the blocked layout on entry density: regrouping
// only pays when a row's entries cluster several-per-block, so the
// per-run bookkeeping (row lookup, pointer walk, accumulator add)
// amortizes over a sequential partial sum. Web-scale transition rows are
// sparse (a handful of entries strewn across many blocks), where the
// blocked walk measures ~2x slower than row-major; requiring an average
// run of at least this many entries keeps the layout for operands that
// actually benefit. Variable so tests can force the layout on small
// fixtures.
var csr32BlockedMinRun = 8

// csr32Blocked is the cache-blocked entry layout of a CSR32 under a fixed
// stripe partition: within each row stripe, entries are regrouped into
// column-block-major order — all of the stripe's entries whose columns
// fall in block 0 first (in (row, col) order), then block 1, and so on —
// so the gather from src touches one 256 KiB window of the source vector
// at a time instead of striding across all of it. Entries of one row
// within one block stay contiguous; each such maximal segment is a "run"
// (runRow/runPtr), and a kernel accumulates a run into the row's float64
// accumulator with one sequential partial sum.
//
// The layout is a function of the matrix and the stripe partition alone —
// never of the worker count — so kernels that process runs in layout
// order within a stripe, and rows' run partials in block order, produce
// bitwise identical results at every worker count.
type csr32Blocked struct {
	stripeRun []int32 // per-stripe run boundaries into runRow; len stripes+1
	runRow    []int32 // row of each run
	runPtr    []int64 // entry boundaries of each run into cols/vals; len runs+1
	cols      []int32 // permuted column indices
	vals      []float32
}

// buildCSR32Blocked builds the blocked layout of m under the stripe
// partition bounds. It returns nil when the whole source vector fits one
// column block — the layout would then be the CSR order itself, and the
// kernels' plain row-major path is strictly cheaper — or when the
// operand's entries are too scattered for blocking to pay (average run
// shorter than csr32BlockedMinRun).
func buildCSR32Blocked(m *CSR32, bounds []int) *csr32Blocked {
	if m.res != nil {
		// A slab-backed operand streams its entries from the mapping and
		// sheds them after each stripe; a global blocked layout would copy
		// Cols/Vals into the heap, defeating the point of the slab. Those
		// operands block per stripe instead (csr32StripeBlocker).
		return nil
	}
	if !csr32BlockedWorthIt(m, bounds, nil) {
		return nil
	}
	nblk := (m.ColsN + csr32ColBlockCols - 1) / csr32ColBlockCols
	stripes := len(bounds) - 1
	b := &csr32Blocked{
		stripeRun: make([]int32, stripes+1),
		cols:      make([]int32, len(m.Cols)),
		vals:      make([]float32, len(m.Vals)),
	}
	pos := 0
	var cur []int64 // per-row read cursor within the current stripe
	for s := 0; s < stripes; s++ {
		lo, hi := bounds[s], bounds[s+1]
		cur = append(cur[:0], m.RowPtr[lo:hi]...)
		for blk := 0; blk < nblk; blk++ {
			limit := int32((blk + 1) * csr32ColBlockCols)
			for i := lo; i < hi; i++ {
				p, end := cur[i-lo], m.RowPtr[i+1]
				start := p
				// Columns within a row are strictly increasing, so the
				// block's segment is a prefix of the remaining entries.
				for p < end && m.Cols[p] < limit {
					p++
				}
				if p > start {
					b.runRow = append(b.runRow, int32(i))
					b.runPtr = append(b.runPtr, int64(pos))
					n := copy(b.cols[pos:], m.Cols[start:p])
					copy(b.vals[pos:pos+n], m.Vals[start:p])
					pos += n
					cur[i-lo] = p
				}
			}
		}
		b.stripeRun[s+1] = int32(len(b.runRow))
	}
	b.runPtr = append(b.runPtr, int64(pos))
	return b
}

// csr32BlockedWorthIt decides whether the blocked layout pays for m: the
// source vector must span several column blocks and the entries must
// cluster densely enough that the average run clears csr32BlockedMinRun.
// The run count is a row-local sum, so scanning stripe by stripe
// (reporting each stripe to the release window of a slab-backed operand
// under a residency budget; nil otherwise) reaches the identical
// decision the whole-matrix scan would — which is what keeps the in-heap
// and streamed kernels on the same layout for the same matrix.
func csr32BlockedWorthIt(m *CSR32, bounds []int, win *releaseWindow) bool {
	if m.ColsN <= csr32ColBlockCols {
		return false
	}
	if csr32BlockedMinRun <= 1 {
		return true
	}
	runs := 0
	for s := 0; s+1 < len(bounds); s++ {
		lo, hi := bounds[s], bounds[s+1]
		for i := lo; i < hi; i++ {
			last := int32(-1)
			for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
				if b := m.Cols[p] / int32(csr32ColBlockCols); b != last {
					runs++
					last = b
				}
			}
		}
		win.done(m.RowPtr[lo], m.RowPtr[hi])
	}
	win.endPass()
	return runs > 0 && m.NNZ() >= csr32BlockedMinRun*runs
}

// csr32StripeBlocker carries the shape constants of the streamed blocked
// path: slab-backed operands cannot hold a whole-matrix blocked layout in
// heap, so each kernel pass regroups one stripe at a time into a bounded
// per-worker scratch, runs the identical run loop over it, and reports
// the stripe as consumed. Because blockStripe reproduces buildCSR32Blocked's
// per-stripe run structure exactly — same runs, same order, same entry
// permutation — the streamed kernel's accumulation order, and therefore
// its output bits, match the in-heap blocked kernel at every worker count
// and every residency budget.
type csr32StripeBlocker struct {
	nblk    int
	maxNNZ  int64 // largest stripe's entry count, the scratch capacity
	maxRows int
}

// newCSR32StripeBlocker gates and sizes the streamed blocked path for a
// slab-backed operand, or returns nil when the row-major path should run
// (same decision rule as the in-heap layout).
func newCSR32StripeBlocker(m *CSR32, bounds []int, win *releaseWindow) *csr32StripeBlocker {
	if !csr32BlockedWorthIt(m, bounds, win) {
		return nil
	}
	sb := &csr32StripeBlocker{nblk: (m.ColsN + csr32ColBlockCols - 1) / csr32ColBlockCols}
	for s := 0; s+1 < len(bounds); s++ {
		lo, hi := bounds[s], bounds[s+1]
		if nnz := m.RowPtr[hi] - m.RowPtr[lo]; nnz > sb.maxNNZ {
			sb.maxNNZ = nnz
		}
		if rows := hi - lo; rows > sb.maxRows {
			sb.maxRows = rows
		}
	}
	return sb
}

// csr32StripeScratch is one worker's regroup buffer. Workers own disjoint
// scratches, so stripes regroup concurrently with no sharing.
type csr32StripeScratch struct {
	runRow []int32
	runPtr []int64
	cols   []int32
	vals   []float32
	cur    []int64
}

func (sb *csr32StripeBlocker) newScratch() *csr32StripeScratch {
	return &csr32StripeScratch{
		cols: make([]int32, 0, sb.maxNNZ),
		vals: make([]float32, 0, sb.maxNNZ),
		cur:  make([]int64, 0, sb.maxRows),
	}
}

// blockStripe regroups rows [lo, hi) of m into sc, reproducing exactly
// the segment of buildCSR32Blocked's layout for this stripe (runPtr is
// stripe-local instead of global; run contents and order are identical).
func (sb *csr32StripeBlocker) blockStripe(m *CSR32, lo, hi int, sc *csr32StripeScratch) {
	sc.runRow = sc.runRow[:0]
	sc.runPtr = sc.runPtr[:0]
	sc.cols = sc.cols[:0]
	sc.vals = sc.vals[:0]
	sc.cur = append(sc.cur[:0], m.RowPtr[lo:hi]...)
	stripeNNZ := m.RowPtr[hi] - m.RowPtr[lo]
	pos := int64(0)
	for blk := 0; blk < sb.nblk && pos < stripeNNZ; blk++ {
		limit := int32((blk + 1) * csr32ColBlockCols)
		for i := lo; i < hi; i++ {
			p, end := sc.cur[i-lo], m.RowPtr[i+1]
			start := p
			// Columns within a row are strictly increasing, so the
			// block's segment is a prefix of the remaining entries.
			for p < end && m.Cols[p] < limit {
				p++
			}
			if p > start {
				sc.runRow = append(sc.runRow, int32(i))
				sc.runPtr = append(sc.runPtr, pos)
				sc.cols = append(sc.cols, m.Cols[start:p]...)
				sc.vals = append(sc.vals, m.Vals[start:p]...)
				pos += p - start
				sc.cur[i-lo] = p
			}
		}
	}
	sc.runPtr = append(sc.runPtr, pos)
}

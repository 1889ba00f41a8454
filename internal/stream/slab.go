package stream

import (
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"strings"

	"sourcerank/internal/durable"
	"sourcerank/internal/graph"
	"sourcerank/internal/linalg"
)

// The slab-backed refresh keeps the shared PageRank/TrustRank transition
// operand Mᵀ on disk as slab generations instead of an in-heap CSR. Each
// topology change commits transition_t.gen<version>.slab by recomputing
// only the dirty predecessor rows — the Mᵀ rows reachable from any
// source row whose successor set changed — and copying every clean row's
// bytes straight from the previous generation's mapping, releasing
// pages behind the copy. The committed file is byte-identical to
// linalg.WriteSlabCSR(rank.TransitionT(structure)): dirty rows are
// refilled by the same ascending-predecessor counting pass TransitionT
// uses, and a clean row's content provably cannot have changed (every
// predecessor that rewired or re-weighted marks all its old and new
// successor rows dirty). The solves then stream the mapped file under
// the residency budget, bitwise identical to the in-heap solve.

// slabGenPrefix names generation files inside Options.SlabDir.
const (
	slabGenPrefix = "transition_t.gen"
	slabGenSuffix = ".slab"
)

// slabCopyWindow is the clean-row copy granularity in matrix entries:
// the rewrite copies at most this many entries of the old generation
// before reporting them consumed, so the old generation's release window
// (linalg.SlabCSR.ReleaseEntries) bounds the copy's resident footprint
// independently of generation size.
const slabCopyWindow = 1 << 20

// slabRefresher owns the on-disk generation chain of Mᵀ.
type slabRefresher struct {
	dir        string
	fsys       durable.FS
	maxRes     int64
	bufEntries int

	sm   *linalg.SlabCSR // mapped current generation; nil before the first build
	path string
	rows int    // row count of the current generation
	ver  uint64 // structure version the current generation reflects

	dirty map[int32]struct{} // Mᵀ rows invalidated against the current generation
}

func newSlabRefresher(opt Options) *slabRefresher {
	buf := opt.SlabPatchEntries
	if buf <= 0 {
		buf = 1 << 20
	}
	fsys := opt.FS
	if fsys == nil {
		fsys = durable.OS{}
	}
	return &slabRefresher{
		dir: opt.SlabDir, fsys: fsys, maxRes: opt.MaxResident, bufEntries: buf,
		dirty: make(map[int32]struct{}),
	}
}

// pruneStale removes generation files left behind by a crashed
// predecessor; the refresher always rebuilds its first generation from
// live state, so any surviving file is garbage.
func (sr *slabRefresher) pruneStale() {
	entries, err := sr.fsys.ReadDir(sr.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, slabGenPrefix) && strings.HasSuffix(name, slabGenSuffix) {
			_ = sr.fsys.Remove(filepath.Join(sr.dir, name))
		}
	}
}

// invalidate marks the Mᵀ rows fed by one changed source row: the row's
// old successors (they may lose this predecessor or see its weight
// change) and its next successors (they gain it or see a new weight).
func (sr *slabRefresher) invalidate(old, next []int32) {
	for _, v := range old {
		sr.dirty[v] = struct{}{}
	}
	for _, v := range next {
		sr.dirty[v] = struct{}{}
	}
}

// close unmaps the current generation (the file stays on disk until the
// next generation supersedes it or pruneStale reclaims it).
func (sr *slabRefresher) close() error {
	if sr.sm == nil {
		return nil
	}
	sm := sr.sm
	sr.sm = nil
	return sm.Close()
}

// ensure returns the mapped operand for structure version sv, rewriting
// a fresh generation first when the topology moved past the current one.
// patched and copied report the rewrite's row accounting (both zero when
// the generation was already current).
func (sr *slabRefresher) ensure(topo graph.Topology, sv uint64) (m *linalg.CSR, patched, copied int, err error) {
	if sr.sm != nil && sr.ver == sv {
		return sr.sm.Matrix(), 0, 0, nil
	}
	path := filepath.Join(sr.dir, fmt.Sprintf("%s%d%s", slabGenPrefix, sv, slabGenSuffix))
	patched, copied, err = sr.writeGeneration(topo, path)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("stream: writing transition slab: %w", err)
	}
	sm, err := linalg.OpenSlabCSR(path, linalg.SlabOpenOptions{MaxResident: sr.maxRes})
	if err != nil {
		return nil, 0, 0, fmt.Errorf("stream: opening transition slab: %w", err)
	}
	if sr.sm != nil {
		_ = sr.sm.Close()
		_ = sr.fsys.Remove(sr.path)
	}
	sr.sm, sr.path, sr.rows, sr.ver = sm, path, topo.NumNodes(), sv
	sr.dirty = make(map[int32]struct{})
	return sm.Matrix(), patched, copied, nil
}

// writeGeneration commits the next generation of Mᵀ at path. Dirty rows
// are recomputed from topo in ascending chunks bounded by bufEntries;
// clean rows stream byte-for-byte from the previous generation.
func (sr *slabRefresher) writeGeneration(topo graph.Topology, path string) (patched, copied int, err error) {
	n := topo.NumNodes()
	oldRows := 0
	var old *linalg.CSR
	if sr.sm != nil {
		old, oldRows = sr.sm.Matrix(), sr.rows
	}

	// Dirty destination rows, ascending: every invalidated row plus every
	// row beyond the previous generation (sources added since).
	dirtyList := make([]int32, 0, len(sr.dirty)+n-oldRows)
	for v := range sr.dirty {
		if int(v) < oldRows {
			dirtyList = append(dirtyList, v)
		}
	}
	for v := oldRows; v < n; v++ {
		dirtyList = append(dirtyList, int32(v))
	}
	slices.Sort(dirtyList)
	dirtyList = slices.Compact(dirtyList)
	patched, copied = len(dirtyList), n-len(dirtyList)

	// One topology pass fixes the new row lengths (in-degrees) and the
	// entry total; RowPtr follows by prefix sum. O(n) index state is the
	// same order as the solver's iterate vectors, so it does not move the
	// residency ceiling — only O(nnz) arrays must never materialize.
	indeg := make([]int64, n)
	var nnz int64
	for u := 0; u < n; u++ {
		for _, v := range topo.Successors(int32(u)) {
			indeg[v]++
			nnz++
		}
	}
	rowPtr := make([]int64, n+1)
	for v := 0; v < n; v++ {
		rowPtr[v+1] = rowPtr[v] + indeg[v]
	}

	// Chunk the dirty rows under the patch-buffer budget. Each chunk costs
	// one extra topology pass per section; chunking never changes the
	// committed bytes, only the rewrite's memory ceiling.
	type chunk struct{ lo, hi int } // index range into dirtyList
	var chunks []chunk
	for i := 0; i < len(dirtyList); {
		j, entries := i, int64(0)
		for j < len(dirtyList) {
			e := indeg[dirtyList[j]]
			if j > i && entries+e > int64(sr.bufEntries) {
				break
			}
			entries += e
			j++
		}
		chunks = append(chunks, chunk{i, j})
		i = j
	}

	// emit writes one whole section (cols or vals) in row order,
	// interleaving clean-span copies with chunkwise-recomputed dirty rows.
	// The dirty fill is TransitionT's counting pass restricted to the
	// chunk: predecessors arrive in ascending u, weights are the exact
	// 1/len(succ) expression, so recomputed rows carry TransitionT's bits.
	emit := func(w io.Writer, vals bool) error {
		var bufCols []int32
		var bufVals []float64
		// Only the open section's writer ever buffers; the other stays empty.
		cw := linalg.NewSectionWriter[int32](w)
		vw := linalg.NewSectionWriter[float64](w)
		write := func(cols []int32, values []float64, p, q int64) error {
			if vals {
				return vw.Write(values[p:q])
			}
			return cw.Write(cols[p:q])
		}
		// copySpan streams the clean rows [lo, hi) of the section from the old
		// generation's mapping, releasing pages behind each window. Clean rows
		// are contiguous between dirty ones, so one span copy covers them all.
		copySpan := func(lo, hi int) error {
			a, b := old.RowPtr[lo], old.RowPtr[hi]
			if b-a != rowPtr[hi]-rowPtr[lo] {
				return fmt.Errorf("clean rows [%d,%d) changed length; dirty tracking missed a row", lo, hi)
			}
			for p := a; p < b; p += slabCopyWindow {
				q := min(p+slabCopyWindow, b)
				if err := write(old.Cols, old.Vals, p, q); err != nil {
					return err
				}
				sr.sm.ReleaseEntries(p, q)
			}
			return nil
		}
		var bptr, cur []int64
		idx := make(map[int32]int, sr.bufEntries/16+1)
		next := 0 // next row to emit
		for _, ch := range chunks {
			rows := dirtyList[ch.lo:ch.hi]
			bptr = bptr[:0]
			bptr = append(bptr, 0)
			for k := range idx {
				delete(idx, k)
			}
			for i, v := range rows {
				idx[v] = i
				bptr = append(bptr, bptr[i]+indeg[v])
			}
			total := bptr[len(rows)]
			if vals {
				bufVals = slices.Grow(bufVals[:0], int(total))[:total]
			} else {
				bufCols = slices.Grow(bufCols[:0], int(total))[:total]
			}
			cur = append(cur[:0], bptr[:len(rows)]...)
			for u := 0; u < n; u++ {
				succ := topo.Successors(int32(u))
				if len(succ) == 0 {
					continue
				}
				var wgt float64
				if vals {
					wgt = 1 / float64(len(succ))
				}
				for _, v := range succ {
					li, ok := idx[v]
					if !ok {
						continue
					}
					if vals {
						bufVals[cur[li]] = wgt
					} else {
						bufCols[cur[li]] = int32(u)
					}
					cur[li]++
				}
			}
			for i, v := range rows {
				if int(v) > next {
					if err := copySpan(next, int(v)); err != nil {
						return err
					}
				}
				if err := write(bufCols, bufVals, bptr[i], bptr[i+1]); err != nil {
					return err
				}
				next = int(v) + 1
			}
		}
		if next < n {
			if err := copySpan(next, n); err != nil {
				return err
			}
		}
		if vals {
			return vw.Flush()
		}
		return cw.Flush()
	}

	err = linalg.WriteSlabFile(sr.fsys, path, linalg.SlabFloat64, linalg.SlabSections{
		Rows: n, Cols: n, NNZ: nnz,
		RowPtr: func(w io.Writer) error { return linalg.WriteSection(w, rowPtr) },
		ColIdx: func(w io.Writer) error { return emit(w, false) },
		Values: func(w io.Writer) error { return emit(w, true) },
	})
	if err != nil {
		return 0, 0, err
	}
	return patched, copied, nil
}

package webgraph

import (
	"fmt"
	"io"
	"path/filepath"

	"sourcerank/internal/durable"
	"sourcerank/internal/linalg"
)

// This file builds the transition-matrix slab files (internal/linalg slab
// format) straight from a compressed graph, without ever materializing an
// in-RAM CSR. The peak heap cost of a build is O(nodes) for the two
// row-pointer arrays and the row weights plus one bounded transpose
// bucket — independent of the edge count — so a graph whose matrices
// dwarf RAM can still be lowered to solvable slabs.
//
// Bitwise contract: the P slab decodes to exactly the uniform out-degree
// transition matrix (rank's builder: row u holds 1/o(u) per successor,
// dangling rows empty), and the Pᵀ slab to exactly its transpose as
// TransposeParallel/rank.TransitionT order it (per destination row,
// sources ascending). Slab-backed solves therefore reproduce the
// in-memory solver output bit for bit.

// SlabOptions configures BuildTransitionSlabs.
type SlabOptions struct {
	// Precision selects float64 or float32 value sections. The float32
	// narrowing matches linalg.NewCSR32 (nearest-even), so a float32 slab
	// equals the in-RAM float32 mirror bit for bit.
	Precision linalg.Precision
}

// slabBufferBytes bounds the transpose bucket buffer: large enough that
// ordinary graphs transpose in one pass, small enough to stay irrelevant
// next to the dense iterate vectors of the solve that follows. A smaller
// buffer means more decode passes over the source, not a different
// result; this package's tests lower it (export_test.go) to reach the
// multi-bucket transpose.
var slabBufferBytes int64 = 64 << 20

// SlabPaths names the two slab files a build commits.
type SlabPaths struct {
	P  string // forward transition matrix
	PT string // its transpose, the power-iteration operand
}

// AdjacencySource is any graph that can replay its adjacency as a
// sorted, deduplicated sequential pass: every node from 0 to NumNodes()-1
// exactly once, successors ascending, the succ slice valid only for the
// duration of the callback. *Compressed satisfies it by decoding its
// slab; gen.Corpus satisfies it by merging on-disk shard runs — which is
// what lets slab construction consume a generator's spill files directly,
// with no compressed graph (let alone an edge list) ever resident. A slab
// build runs two passes at once, so EachAdjacency must be safe to call
// concurrently: *Compressed only reads its slab, and gen.Corpus opens its
// own run readers and merge heap per call.
type AdjacencySource interface {
	NumNodes() int
	EachAdjacency(fn func(u int32, succ []int32) error) error
}

// BuildTransitionSlabs lowers c to two committed slab files in dir:
// transition.slab (P) and transition_t.slab (Pᵀ). Sections are streamed
// from repeated decodes of the compressed adjacency slab, so no CSR array
// is ever resident; the transpose is assembled by a bucketed counting
// sort over destination-row ranges sized to the bucket buffer.
func BuildTransitionSlabs(fsys durable.FS, dir string, c *Compressed, opt SlabOptions) (SlabPaths, error) {
	return BuildTransitionSlabsFrom(fsys, dir, c, opt)
}

// BuildTransitionSlabsFrom is BuildTransitionSlabs over any adjacency
// source. The source is replayed once for the degrees, once for P's
// columns and once per transpose bucket fill (DESIGN §14 has the cost
// model). The two files are independent commits built side by side: on
// failure either may have been committed whole, neither is ever torn,
// and P's error is reported ahead of Pᵀ's.
func BuildTransitionSlabsFrom(fsys durable.FS, dir string, src AdjacencySource, opt SlabOptions) (SlabPaths, error) {
	if opt.Precision == linalg.Float32 {
		return buildTransitionSlabs[float32](fsys, dir, src, opt)
	}
	return buildTransitionSlabs[float64](fsys, dir, src, opt)
}

// buildTransitionSlabs is the build at value type F, which must be the
// element type of opt.Precision. F(x) narrows to nearest even, matching
// linalg.NewCSR32.
func buildTransitionSlabs[F float32 | float64](fsys durable.FS, dir string, src AdjacencySource, opt SlabOptions) (SlabPaths, error) {
	n := src.NumNodes()
	paths := SlabPaths{
		P:  filepath.Join(dir, "transition.slab"),
		PT: filepath.Join(dir, "transition_t.slab"),
	}

	// Degree pass: one sequential decode counts both matrices' row
	// lengths, and a prefix sum turns the counts into the two RowPtr
	// sections exactly as they go to disk.
	ptrP := make([]int64, n+1)
	ptrPT := make([]int64, n+1)
	err := src.EachAdjacency(func(u int32, succ []int32) error {
		ptrP[u+1] = int64(len(succ))
		for _, v := range succ {
			ptrPT[v+1]++
		}
		return nil
	})
	if err != nil {
		return SlabPaths{}, err
	}
	// inv[u] = 1/o(u), the value of every entry in row u of P — exactly
	// rank's transition builder. Dangling u never emits, so inv there is
	// never read.
	inv := make([]float64, n)
	for u := 0; u < n; u++ {
		if d := ptrP[u+1]; d > 0 {
			inv[u] = 1 / float64(d)
		}
		ptrP[u+1] += ptrP[u]
		ptrPT[u+1] += ptrPT[u]
	}

	// The files share only read-only state, so P's column pass overlaps
	// the transpose's bucket fill.
	shape := linalg.SlabSections{Rows: n, Cols: n, NNZ: ptrP[n]}
	var errPT error
	done := make(chan struct{})
	go func() {
		defer close(done)
		errPT = writeTransposeSlab[F](fsys, paths.PT, opt.Precision, shape, src, ptrPT, inv, slabBufferBytes)
	}()
	errP := writeForwardSlab[F](fsys, paths.P, opt.Precision, shape, src, ptrP, inv)
	<-done
	if errP != nil {
		return SlabPaths{}, fmt.Errorf("webgraph: transition slab: %w", errP)
	}
	if errPT != nil {
		return SlabPaths{}, fmt.Errorf("webgraph: transpose slab: %w", errPT)
	}
	return paths, nil
}

// EachAdjacency decodes every adjacency list front to back, reusing one
// scratch buffer; it satisfies AdjacencySource.
func (c *Compressed) EachAdjacency(fn func(u int32, succ []int32) error) error {
	var scratch []int32
	for u := 0; u < c.numNodes; u++ {
		lo, hi := c.offsets[u], c.offsets[u+1]
		if lo < 0 || hi < lo || hi > int64(len(c.slab)) {
			return fmt.Errorf("%w: offsets of node %d out of bounds", ErrCodec, u)
		}
		var err error
		scratch, _, err = DecodeAdjacency(c.slab[lo:hi], int32(u), c.numNodes, scratch[:0])
		if err != nil {
			return fmt.Errorf("webgraph: node %d: %w", u, err)
		}
		if err := fn(int32(u), scratch); err != nil {
			return err
		}
	}
	return nil
}

// writeForwardSlab commits the forward transition slab: the row pointers
// as they stand, columns from one decode pass, and values — one copy of
// inv[u] per entry of row u — from the row pointers alone.
func writeForwardSlab[F float32 | float64](fsys durable.FS, path string, prec linalg.Precision, s linalg.SlabSections, src AdjacencySource, ptr []int64, inv []float64) error {
	s.RowPtr = func(w io.Writer) error {
		return linalg.WriteSection(w, ptr)
	}
	s.ColIdx = func(w io.Writer) error {
		sw := linalg.NewSectionWriter[int32](w)
		if err := src.EachAdjacency(func(u int32, succ []int32) error {
			return sw.Write(succ)
		}); err != nil {
			return err
		}
		return sw.Flush()
	}
	s.Values = func(w io.Writer) error {
		sw := linalg.NewSectionWriter[F](w)
		for u, x := range inv {
			v := F(x)
			for d := ptr[u+1] - ptr[u]; d > 0; d-- {
				sw.Append(v)
			}
		}
		return sw.Flush()
	}
	return linalg.WriteSlabFile(fsys, path, prec, s)
}

// transposeBuckets splits destination rows [0, n) into contiguous ranges
// whose entry counts fit a bufBytes bucket of 4-byte elements (always at
// least one row per range), returning the range boundaries.
func transposeBuckets(ptr []int64, bufBytes int64) []int {
	maxEntries := max(bufBytes/4, 1)
	bounds := []int{0}
	for v := 0; v+1 < len(ptr); v++ {
		lo := bounds[len(bounds)-1]
		if ptr[v] > ptr[lo] && ptr[v+1]-ptr[lo] > maxEntries {
			bounds = append(bounds, v)
		}
	}
	return append(bounds, len(ptr)-1)
}

// transposeFill is the bucketed counting sort behind the transpose slab.
// A bucket is a contiguous range of destination rows; filling it decodes
// the graph once and leaves, in buf, the source of every in-edge of those
// rows in (destination, source) ascending order — the exact entry order
// of the transposed CSR, so a filled bucket is a ready-made run of the
// column section.
type transposeFill struct {
	src    AdjacencySource
	ptr    []int64 // Pᵀ row pointers; a fill borrows them as write cursors
	bounds []int   // bucket b covers destination rows [bounds[b], bounds[b+1])
	buf    []int32 // sized to the largest bucket
	holds  int     // index of the bucket now in buf, -1 when none
}

func newTransposeFill(src AdjacencySource, ptr []int64, bufBytes int64) *transposeFill {
	t := &transposeFill{src: src, ptr: ptr, bounds: transposeBuckets(ptr, bufBytes), holds: -1}
	var maxEntries int64
	for b := 0; b+1 < len(t.bounds); b++ {
		maxEntries = max(maxEntries, ptr[t.bounds[b+1]]-ptr[t.bounds[b]])
	}
	t.buf = make([]int32, maxEntries)
	return t
}

// fill returns bucket b's entries, decoding the graph only if buf does
// not already hold them: when the whole transpose is one bucket, the
// fill the column section paid for also serves the value section.
func (t *transposeFill) fill(b int) ([]int32, error) {
	lo, hi := t.bounds[b], t.bounds[b+1]
	ptr, base := t.ptr, t.ptr[lo]
	buf := t.buf[:ptr[hi]-base]
	if t.holds == b {
		return buf, nil
	}
	t.holds = -1
	// A bucket spanning every row needs no per-edge range test: each
	// successor is already a valid row (DecodeAdjacency and the corpus
	// merge both bound it by NumNodes).
	whole := lo == 0 && hi == len(ptr)-1
	err := t.src.EachAdjacency(func(u int32, succ []int32) error {
		if whole {
			for _, v := range succ {
				buf[ptr[v]] = u
				ptr[v]++
			}
			return nil
		}
		for _, v := range succ {
			if int(v) >= lo && int(v) < hi {
				buf[ptr[v]-base] = u
				ptr[v]++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err // the cursors are mid-flight: the build is over
	}
	// Every cursor now stands at the start of the next row; step them back.
	if lo < hi {
		copy(ptr[lo+1:hi], ptr[lo:hi])
		ptr[lo] = base
	}
	t.holds = b
	return buf, nil
}

// eachBucket fills every bucket in row order and hands its entries to fn.
func (t *transposeFill) eachBucket(fn func(sources []int32) error) error {
	for b := 0; b+1 < len(t.bounds); b++ {
		sources, err := t.fill(b)
		if err != nil {
			return err
		}
		if err := fn(sources); err != nil {
			return err
		}
	}
	return nil
}

// writeTransposeSlab commits the transpose slab. Sections are streamed in
// file order, so the column section and the value section each walk the
// buckets once; with more than one bucket that is a fill per bucket per
// section, with one bucket a single fill serves both.
func writeTransposeSlab[F float32 | float64](fsys durable.FS, path string, prec linalg.Precision, s linalg.SlabSections, src AdjacencySource, ptr []int64, inv []float64, bufBytes int64) error {
	t := newTransposeFill(src, ptr, bufBytes)
	s.RowPtr = func(w io.Writer) error {
		return linalg.WriteSection(w, ptr)
	}
	s.ColIdx = func(w io.Writer) error {
		sw := linalg.NewSectionWriter[int32](w)
		if err := t.eachBucket(sw.Write); err != nil {
			return err
		}
		return sw.Flush()
	}
	s.Values = func(w io.Writer) error {
		// Value k of the transpose is inv[source k].
		sw := linalg.NewSectionWriter[F](w)
		err := t.eachBucket(func(sources []int32) error {
			for _, u := range sources {
				sw.Append(F(inv[u]))
			}
			return nil
		})
		if err != nil {
			return err
		}
		return sw.Flush()
	}
	return linalg.WriteSlabFile(fsys, path, prec, s)
}

package webgraph

import (
	"fmt"
	"runtime"
	"sync"

	"sourcerank/internal/graph"
)

// Compressed is an immutable graph whose adjacency lists are held
// gap/varint-encoded in a single byte slab: the in-memory stage between
// an adjacency source and transition slabs or a CSR graph. A per-node
// offset index lets independent node ranges decode concurrently.
type Compressed struct {
	numNodes int
	numEdges int64
	offsets  []int64 // offsets[u] is the slab position of node u's list
	slab     []byte
}

// Compress encodes g into the compressed representation.
func Compress(g *graph.Graph) (*Compressed, error) {
	c := &Compressed{
		numNodes: g.NumNodes(),
		numEdges: g.NumEdges(),
		offsets:  make([]int64, g.NumNodes()+1),
	}
	for u := 0; u < g.NumNodes(); u++ {
		c.offsets[u] = int64(len(c.slab))
		var err error
		c.slab, err = EncodeAdjacency(c.slab, int32(u), g.Successors(int32(u)))
		if err != nil {
			return nil, fmt.Errorf("webgraph: node %d: %w", u, err)
		}
	}
	c.offsets[g.NumNodes()] = int64(len(c.slab))
	return c, nil
}

// CompressFrom encodes any adjacency source into the compressed
// representation in one sequential pass. Peak heap is the output slab
// plus the offset index — the source's edges are never materialized —
// and the result is byte-identical to Compress over the equivalent
// graph.Graph, because both consume the same sorted, deduplicated
// adjacency order.
func CompressFrom(src AdjacencySource) (*Compressed, error) {
	n := src.NumNodes()
	c := &Compressed{
		numNodes: n,
		offsets:  make([]int64, n+1),
	}
	err := src.EachAdjacency(func(u int32, succ []int32) error {
		c.offsets[u] = int64(len(c.slab))
		var err error
		c.slab, err = EncodeAdjacency(c.slab, u, succ)
		if err != nil {
			return fmt.Errorf("webgraph: node %d: %w", u, err)
		}
		c.numEdges += int64(len(succ))
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.offsets[n] = int64(len(c.slab))
	return c, nil
}

// NumNodes returns the node count.
func (c *Compressed) NumNodes() int { return c.numNodes }

// NumEdges returns the edge count.
func (c *Compressed) NumEdges() int64 { return c.numEdges }

// SizeBytes returns the in-memory size of the encoded adjacency slab,
// excluding the offset index.
func (c *Compressed) SizeBytes() int { return len(c.slab) }

// BitsPerEdge returns the average encoded size per edge in bits, the
// standard WebGraph compression metric. Returns 0 for an edgeless graph.
func (c *Compressed) BitsPerEdge() float64 {
	if c.numEdges == 0 {
		return 0
	}
	return float64(len(c.slab)*8) / float64(c.numEdges)
}

// Decompress reconstructs the plain CSR graph.
func (c *Compressed) Decompress() (*graph.Graph, error) {
	b := graph.NewBuilder(c.numNodes)
	var scratch []int32
	for u := 0; u < c.numNodes; u++ {
		lo, hi := c.offsets[u], c.offsets[u+1]
		var err error
		scratch, _, err = DecodeAdjacency(c.slab[lo:hi], int32(u), c.numNodes, scratch[:0])
		if err != nil {
			return nil, fmt.Errorf("webgraph: node %d: %w", u, err)
		}
		for _, v := range scratch {
			b.AddEdge(int32(u), v)
		}
	}
	g := b.Build()
	if g.NumEdges() != c.numEdges {
		return nil, fmt.Errorf("%w: edge count mismatch %d != %d", ErrCodec, g.NumEdges(), c.numEdges)
	}
	return g, nil
}

// decompressParallelMinNodes gates the parallel decoder; below it the
// serial path wins. Variable so tests can force the parallel path on
// small fixtures.
var decompressParallelMinNodes = 2048

// partitionNodesBySlab splits [0, numNodes) into workers contiguous node
// ranges of approximately equal encoded size, returning workers+1
// boundaries. Adjacency blocks are independent, so ranges decode with no
// coordination.
func (c *Compressed) partitionNodesBySlab(workers int) []int {
	bounds := make([]int, workers+1)
	bounds[workers] = c.numNodes
	total := int64(len(c.slab))
	if total == 0 {
		for w := 1; w < workers; w++ {
			bounds[w] = w * c.numNodes / workers
		}
		return bounds
	}
	node := 0
	for w := 1; w < workers; w++ {
		target := total * int64(w) / int64(workers)
		for node < c.numNodes && c.offsets[node] < target {
			node++
		}
		bounds[w] = node
	}
	return bounds
}

// DecompressParallel reconstructs the plain CSR graph, decoding
// independent node blocks concurrently. workers <= 0 selects GOMAXPROCS.
// The decoded lists are already sorted and duplicate-free, so the CSR is
// assembled directly from per-worker buffers, producing a graph identical
// to Decompress for any worker count — and skipping the Builder's
// edge-sort pass entirely, which makes even the single-worker path faster
// than the serial decoder.
func (c *Compressed) DecompressParallel(workers int) (*graph.Graph, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > c.numNodes {
		workers = c.numNodes
	}
	if workers < 1 || c.numNodes < decompressParallelMinNodes {
		workers = 1
	}
	bounds := c.partitionNodesBySlab(workers)
	rowPtr := make([]int64, c.numNodes+1)
	parts := make([][]int32, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []int32
			for u := bounds[w]; u < bounds[w+1]; u++ {
				lo, hi := c.offsets[u], c.offsets[u+1]
				if lo < 0 || hi < lo || hi > int64(len(c.slab)) {
					errs[w] = fmt.Errorf("%w: offsets of node %d out of bounds", ErrCodec, u)
					return
				}
				before := len(buf)
				var err error
				buf, _, err = DecodeAdjacency(c.slab[lo:hi], int32(u), c.numNodes, buf)
				if err != nil {
					errs[w] = fmt.Errorf("webgraph: node %d: %w", u, err)
					return
				}
				rowPtr[u+1] = int64(len(buf) - before)
			}
			parts[w] = buf
		}(w)
	}
	wg.Wait()
	// Workers cover disjoint node ranges, so the lowest-indexed error is
	// the one the serial decoder would have hit first.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for u := 0; u < c.numNodes; u++ {
		rowPtr[u+1] += rowPtr[u]
	}
	if rowPtr[c.numNodes] != c.numEdges {
		return nil, fmt.Errorf("%w: edge count mismatch %d != %d", ErrCodec, rowPtr[c.numNodes], c.numEdges)
	}
	succ := make([]int32, c.numEdges)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			copy(succ[rowPtr[bounds[w]]:], parts[w])
		}(w)
	}
	wg.Wait()
	return graph.FromParts(c.numNodes, rowPtr, succ)
}

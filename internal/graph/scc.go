package graph

// Strongly connected components via Tarjan's algorithm (iterative, so
// million-node web graphs don't overflow the goroutine stack) plus the
// classic "bowtie" decomposition of a web graph around its largest SCC.

// SCCResult maps every node to a component and records component sizes.
// Components are numbered in reverse topological order of the condensation
// (Tarjan's output order): edges between components always point from a
// higher-numbered component to a lower-numbered one.
type SCCResult struct {
	// Comp[v] is the component ID of node v.
	Comp []int32
	// Sizes[c] is the number of nodes in component c.
	Sizes []int32
}

// NumComponents returns the number of strongly connected components.
func (r *SCCResult) NumComponents() int { return len(r.Sizes) }

// Largest returns the ID of the largest component (ties to the smaller
// ID) and its size; (-1, 0) for an empty graph.
func (r *SCCResult) Largest() (int32, int32) {
	best, bestSize := int32(-1), int32(0)
	for c, s := range r.Sizes {
		if s > bestSize {
			best, bestSize = int32(c), s
		}
	}
	return best, bestSize
}

// SCC computes the strongly connected components of g.
func SCC(g *Graph) *SCCResult {
	n := g.NumNodes()
	res := &SCCResult{Comp: make([]int32, n)}
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var stack []NodeID
	var next int32 = 0

	// Iterative Tarjan: each frame tracks the node and the position in
	// its successor list.
	type frame struct {
		v   NodeID
		idx int
	}
	var frames []frame
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames = append(frames[:0], frame{NodeID(root), 0})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, NodeID(root))
		onStack[root] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			succ := g.Successors(f.v)
			if f.idx < len(succ) {
				w := succ[f.idx]
				f.idx++
				if index[w] == unvisited {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// All successors processed: close the frame.
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				// v is the root of a component: pop it off the stack.
				comp := int32(len(res.Sizes))
				var size int32
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					res.Comp[w] = comp
					size++
					if w == v {
						break
					}
				}
				res.Sizes = append(res.Sizes, size)
			}
		}
	}
	return res
}

// BowtieRegion classifies a node's position relative to the largest SCC,
// following the Broder et al. bowtie model of the Web.
type BowtieRegion int8

const (
	// Core is the largest strongly connected component.
	Core BowtieRegion = iota
	// In reaches the core but is not reachable from it.
	In
	// Out is reachable from the core but does not reach it.
	Out
	// Disconnected neither reaches nor is reached by the core
	// (tendrils, tubes, and islands are lumped together).
	Disconnected
)

// String implements fmt.Stringer.
func (r BowtieRegion) String() string {
	switch r {
	case Core:
		return "core"
	case In:
		return "in"
	case Out:
		return "out"
	default:
		return "disconnected"
	}
}

// Bowtie holds the bowtie decomposition of a graph.
type Bowtie struct {
	Region []BowtieRegion
	Counts [4]int
}

// BowtieDecompose computes the bowtie structure around the largest SCC.
// It returns nil for an empty graph.
func BowtieDecompose(g *Graph) *Bowtie {
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	scc := SCC(g)
	coreID, _ := scc.Largest()

	// Forward reachability from the core gives Core ∪ Out; backward
	// reachability gives Core ∪ In.
	seeds := make([]NodeID, 0)
	for v := 0; v < n; v++ {
		if scc.Comp[v] == coreID {
			seeds = append(seeds, NodeID(v))
		}
	}
	fwd := reachable(g, seeds)
	bwd := reachable(g.Transpose(), seeds)

	bt := &Bowtie{Region: make([]BowtieRegion, n)}
	for v := 0; v < n; v++ {
		var r BowtieRegion
		switch {
		case scc.Comp[v] == coreID:
			r = Core
		case bwd[v]: // reaches the core
			r = In
		case fwd[v]: // reached from the core
			r = Out
		default:
			r = Disconnected
		}
		bt.Region[v] = r
		bt.Counts[r]++
	}
	return bt
}

// reachable marks every node reachable from the seed set by BFS.
func reachable(g *Graph, seeds []NodeID) []bool {
	seen := make([]bool, g.NumNodes())
	queue := make([]NodeID, 0, len(seeds))
	for _, s := range seeds {
		if !seen[s] {
			seen[s] = true
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Successors(v) {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return seen
}

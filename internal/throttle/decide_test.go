package throttle

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"sourcerank/internal/gen"
	"sourcerank/internal/graph"
	"sourcerank/internal/linalg"
	"sourcerank/internal/pagegraph"
	"sourcerank/internal/source"
	"sourcerank/internal/spam"
)

// oracleProximity is the walk's fixed point computed from its definition,
// sharing no code with the package: a dense reversed-edge transition S
// (from v to each source linking to v, uniformly), whose rows without
// reversed edges jump to the seed distribution d, iterated x ← β·Sᵀx +
// (1−β)·d in plain loops until successive iterates differ by under 1e-15
// in L1 and then as long again, or for 1000 steps (β¹⁰⁰⁰ < 1e-70) where
// rounding keeps them apart: down to the rounding floor either way.
func oracleProximity(adj [][]int32, seeds []int32) []float64 {
	n := len(adj)
	d := make([]float64, n)
	for _, s := range seeds {
		d[s] = 1
	}
	var mass float64
	for _, v := range d {
		mass += v
	}
	for i := range d {
		d[i] /= mass
	}
	indeg := make([]int, n)
	for _, row := range adj {
		for _, v := range row {
			indeg[v]++
		}
	}
	s := make([][]float64, n)
	for v := range s {
		s[v] = make([]float64, n)
		if indeg[v] == 0 {
			copy(s[v], d)
		}
	}
	for u, row := range adj {
		for _, v := range row {
			s[v][u] += 1 / float64(indeg[v])
		}
	}
	x := slices.Clone(d)
	for it, settled := 0, -1; it < 1000 && (settled < 0 || it < 2*settled); it++ {
		y := make([]float64, n)
		for v := range s {
			for u, p := range s[v] {
				y[u] += proximityBeta * p * x[v]
			}
		}
		var diff float64
		for i := range y {
			y[i] += (1 - proximityBeta) * d[i]
			diff += math.Abs(y[i] - x[i])
		}
		x = y
		if settled < 0 && diff < 1e-15 {
			settled = it
		}
	}
	return x
}

// oracleGap is the k-th minus the (k+1)-th largest entry of x (+Inf when
// k leaves no boundary).
func oracleGap(x []float64, k int) float64 {
	if k <= 0 || k >= len(x) {
		return math.Inf(1)
	}
	s := slices.Clone(x)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	return s[k-1] - s[k]
}

// randomWalkGraph draws a small forward graph with the shapes the walk
// must handle: sources no one links to (rows of the reversed walk that
// jump to the seeds), sources that link nowhere, a part no path connects
// to the seeds, and the single source. One draw in four is a ring, whose
// error decays at the full rate β and so meets the bound most tightly.
func randomWalkGraph(rng *rand.Rand) (adj [][]int32, seeds []int32) {
	n := 1 + rng.Intn(40)
	adj = make([][]int32, n)
	if rng.Intn(4) == 0 {
		for u := range adj {
			adj[u] = []int32{int32((u + 1) % n)}
		}
		return adj, []int32{int32(rng.Intn(n))}
	}
	island := n // sources from island on never link below it
	if n > 4 && rng.Intn(2) == 0 {
		island = n/2 + rng.Intn(n/2)
	}
	for u := range adj {
		lo := 0
		if u >= island {
			lo = island
		}
		seen := map[int32]bool{}
		for e := rng.Intn(5); e > 0; e-- {
			if v := int32(lo + rng.Intn(n-lo)); !seen[v] {
				seen[v] = true
				adj[u] = append(adj[u], v)
			}
		}
	}
	for s := 1 + rng.Intn(3); s > 0; s-- {
		seeds = append(seeds, int32(rng.Intn(min(island, n))))
	}
	return adj, seeds
}

// randomSimplex is a random warm start: positive, summing to 1.
func randomSimplex(rng *rand.Rand, n int) linalg.Vector {
	x := make(linalg.Vector, n)
	for i := range x {
		x[i] = rng.ExpFloat64()
	}
	x.Normalize1()
	return x
}

// TestProximityBoundAgainstOracle checks the contraction argument the stop
// rule rests on, on the product's operator and kernel: after every step,
// from the seed distribution and from random warm starts, the iterate lies
// within errorBound of the oracle's fixed point in L1.
func TestProximityBoundAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 150; trial++ {
		adj, seeds := randomWalkGraph(rng)
		n := len(adj)
		want := oracleProximity(adj, seeds)
		pt, d, err := proximityOperator(graph.FromAdjacency(adj), seeds, nil)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := linalg.NewFusedPower(pt, proximityBeta, d, linalg.ResidualL1, 1)
		if err != nil {
			t.Fatal(err)
		}
		for start := 0; start < 3; start++ {
			cur := slices.Clone(d)
			if start > 0 {
				cur = randomSimplex(rng, n)
			}
			next := make(linalg.Vector, n)
			for it := 1; it <= 300; it++ {
				r := fp.Step(next, cur)
				cur, next = next, cur
				var l1 float64
				for i := range cur {
					l1 += math.Abs(cur[i] - want[i])
				}
				if b := errorBound(r, n); l1 > b {
					t.Fatalf("trial %d start %d iteration %d: ‖x−x*‖₁ = %g above the bound %g (residual %g)", trial, start, it, l1, b, r)
				}
			}
		}
		fp.Close()
	}
}

// TestProximityOperatorAliasesStructure: the walk's Pᵀ is the source
// graph's own sparsity, so its RowPtr and Cols are the structure's arrays
// (not copies), and the operand allocates only its values beside the
// seed vector and the in-degree counts.
func TestProximityOperatorAliasesStructure(t *testing.T) {
	ds, err := gen.GeneratePreset(gen.UK2002, 0.002, 1)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := source.Build(ds.Pages, source.Options{})
	if err != nil {
		t.Fatal(err)
	}
	structure := sg.Structure()
	rowPtr, cols := structure.Parts()
	n, nnz := uint64(len(rowPtr)-1), uint64(len(cols))
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := allocatedUnder(operatorFunc)
	pt, _, err := proximityOperator(structure, ds.SpamSources, nil)
	allocated := allocatedUnder(operatorFunc) - before
	if err != nil {
		t.Fatal(err)
	}
	if &pt.RowPtr[0] != &rowPtr[0] || &pt.Cols[0] != &cols[0] || len(pt.RowPtr) != len(rowPtr) || len(pt.Cols) != len(cols) {
		t.Fatal("Pᵀ does not alias the structure's RowPtr and Cols")
	}
	if len(pt.Vals) != len(cols) {
		t.Fatalf("Pᵀ has %d values for %d entries", len(pt.Vals), len(cols))
	}
	// Vals, the seed vector d and the in-degree counts take 8·nnz + 16·n
	// bytes before size-class rounding; a copied RowPtr and Cols would add
	// 8(n+1) + 4·nnz more, so the limit sits halfway between.
	if got, limit := allocated, 8*nnz+16*n+(4*nnz+8*n)/2; got > limit {
		t.Fatalf("proximityOperator allocated %d bytes over %d sources and %d entries, want at most %d", got, n, nnz, limit)
	}
}

const operatorFunc = "sourcerank/internal/throttle.proximityOperator"

// allocatedUnder is the bytes the memory profile has recorded on stacks
// through function fn. Counting by stack leaves out what the runtime
// allocates beside the call, such as the m and g0 of a thread it starts
// when a stop-the-world ends. Every allocation is recorded only while
// runtime.MemProfileRate is 1.
func allocatedUnder(fn string) uint64 {
	runtime.GC() // the profile publishes an allocation within two cycles
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	var total uint64
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for more := true; more; {
			var f runtime.Frame
			if f, more = frames.Next(); f.Function == fn {
				total += uint64(r.AllocBytes)
				break
			}
		}
	}
	return total
}

// TestDecideTopKMatchesOracle: wherever the fixed point's own gap clears
// 1e-12, the decided κ — cold, and warm from random starts — is TopK of
// the oracle's fixed point, and a contested walk returns SpamProximity's
// vector bit for bit.
func TestDecideTopKMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	decided, contested := 0, 0
	for trial := 0; trial < 300; trial++ {
		adj, seeds := randomWalkGraph(rng)
		n := len(adj)
		g := graph.FromAdjacency(adj)
		want := oracleProximity(adj, seeds)
		k := rng.Intn(n + 2)
		for start := 0; start < 3; start++ {
			opt := ProximityOptions{Workers: 1}
			if start > 0 {
				opt.X0 = randomSimplex(rng, n)
			}
			prox, dec, err := DecideTopK(g, seeds, k, opt)
			if err != nil {
				t.Fatal(err)
			}
			if dec.Contested != "" {
				contested++
				tol, _, err := SpamProximity(g, seeds, ProximityOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(prox, tol) {
					t.Fatalf("trial %d: contested walk (%s) is not the to-tolerance walk", trial, dec.Contested)
				}
				continue
			}
			decided++
			if oracleGap(want, k) > 1e-12 && !slices.Equal(TopK(prox, k), TopK(want, k)) {
				t.Fatalf("trial %d start %d (n=%d k=%d): decided κ differs from the oracle's (gap %g, bound %g)",
					trial, start, n, k, oracleGap(want, k), dec.Bound)
			}
		}
	}
	if decided == 0 || contested == 0 {
		t.Fatalf("%d decided and %d contested walks: the fixtures miss a path", decided, contested)
	}
}

// FuzzProximityDecision decodes a graph, seeds, k and a warm start from
// arbitrary bytes. Two decided walks both name the fixed point's set, so
// the cold and the warm one agree, and agree with the oracle wherever its
// gap clears 1e-12; a decided walk stopped where its gap exceeds twice its
// bound; a contested one is the to-tolerance walk.
func FuzzProximityDecision(f *testing.F) {
	f.Add([]byte{6, 1, 2, 0, 1, 1, 2, 2, 0, 3, 0, 4, 0, 5, 4})
	f.Add([]byte{3, 0, 1, 0, 0, 1, 1, 2})
	f.Add([]byte{12, 5, 3, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0, 1, 3, 5, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 1 + int(data[0])%32
		seeds := []int32{int32(data[1]) % int32(n)}
		k, rng := int(data[2])%(n+2), rand.New(rand.NewSource(int64(data[3])))
		adj := make([][]int32, n)
		for e := 4; e+1 < len(data); e += 2 {
			u, v := int(data[e])%n, int32(data[e+1])%int32(n)
			if !slices.Contains(adj[u], v) {
				adj[u] = append(adj[u], v)
			}
		}
		g := graph.FromAdjacency(adj)
		tol, _, err := SpamProximity(g, seeds, ProximityOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := oracleProximity(adj, seeds)
		var sets [][]float64
		for _, x0 := range []linalg.Vector{nil, randomSimplex(rng, n)} {
			prox, dec, err := DecideTopK(g, seeds, k, ProximityOptions{X0: x0})
			if err != nil {
				t.Fatal(err)
			}
			kappa := TopK(prox, k)
			if _, gap := PatchTopK(make([]float64, n), prox, k); dec.Contested == "" && !(gap > 2*dec.Bound) {
				t.Fatalf("decided at gap %g, not above twice the bound %g", gap, dec.Bound)
			}
			switch {
			case dec.Contested != "":
				if !slices.Equal(prox, tol) {
					t.Fatalf("contested walk (%s) is not the to-tolerance walk", dec.Contested)
				}
			case oracleGap(want, k) > 1e-12 && !slices.Equal(kappa, TopK(want, k)):
				t.Fatalf("decided κ differs from the oracle's (gap %g, bound %g)", oracleGap(want, k), dec.Bound)
			default:
				sets = append(sets, kappa)
			}
		}
		if len(sets) == 2 && !slices.Equal(sets[0], sets[1]) {
			t.Fatal("cold and warm walks decided different sets")
		}
	})
}

// TestDecidedKappaUnderInjections runs every internal/spam injector on
// generated corpora (UK2002 ×0.002, seeds 1–5) and asserts that the κ
// decided cold, the κ decided warm from the pre-injection proximity, and
// the κ of the walk run to tolerance are bitwise equal. The one admitted
// exception is a to-tolerance vector that misorders its own boundary,
// shown by the oracle: the decided κ must then be the oracle's, and the
// case is reported.
func TestDecidedKappaUnderInjections(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		ds, err := gen.GeneratePreset(gen.UK2002, 0.002, seed)
		if err != nil {
			t.Fatal(err)
		}
		spamSrc := ds.SpamSources
		base, err := source.Build(ds.Pages, source.Options{})
		if err != nil {
			t.Fatal(err)
		}
		baseProx, _, err := DecideTopK(base.Structure(), spamSrc, DefaultTopK(base.NumSources()), ProximityOptions{})
		if err != nil {
			t.Fatal(err)
		}
		target := ds.Pages.PagesOf(pagegraph.SourceID(spamSrc[0]))[0]
		legit := func(i int) pagegraph.PageID { return pagegraph.PageID((i * 7919) % ds.Pages.NumPages()) }
		victims := []pagegraph.PageID{legit(1), legit(2), legit(3), legit(4), legit(5)}
		colluder := pagegraph.SourceID(spamSrc[1])
		for _, inj := range []struct {
			name   string
			inject func(g *pagegraph.Graph) error
		}{
			{"intra-source", func(g *pagegraph.Graph) error { _, err := spam.InjectIntraSource(g, target, 10); return err }},
			{"inter-source", func(g *pagegraph.Graph) error { _, err := spam.InjectInterSource(g, target, colluder, 10); return err }},
			{"collusion", func(g *pagegraph.Graph) error { _, err := spam.InjectCollusionNetwork(g, target, 5); return err }},
			{"hijack", func(g *pagegraph.Graph) error { return spam.Hijack(g, victims, target) }},
			{"honeypot", func(g *pagegraph.Graph) error { _, err := spam.Honeypot(g, victims, target, 3); return err }},
			{"link farm", func(g *pagegraph.Graph) error {
				_, err := spam.LinkFarm(g, colluder, 20, []pagegraph.PageID{target})
				return err
			}},
			{"link exchange", func(g *pagegraph.Graph) error {
				return spam.LinkExchange(g, []pagegraph.SourceID{colluder, 0, 1, 2}, gen.NewRNG(seed))
			}},
		} {
			name := inj.name
			pg := ds.Pages.Clone()
			if err := inj.inject(pg); err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			sg, err := source.Build(pg, source.Options{})
			if err != nil {
				t.Fatal(err)
			}
			n, g := sg.NumSources(), sg.Structure()
			k := DefaultTopK(n)
			x0 := baseProx.Padded(n).Clone()
			x0.Normalize1()
			cold, _, err := DecideTopK(g, spamSrc, k, ProximityOptions{})
			if err != nil {
				t.Fatal(err)
			}
			warm, _, err := DecideTopK(g, spamSrc, k, ProximityOptions{X0: x0})
			if err != nil {
				t.Fatal(err)
			}
			tol, _, err := SpamProximity(g, spamSrc, ProximityOptions{})
			if err != nil {
				t.Fatal(err)
			}
			kc, kw, kt := TopK(cold, k), TopK(warm, k), TopK(tol, k)
			if !slices.Equal(kc, kw) {
				t.Fatalf("seed %d %s: cold and warm decisions differ", seed, name)
			}
			if slices.Equal(kc, kt) {
				continue
			}
			adj := make([][]int32, n)
			for u := range adj {
				adj[u] = g.Successors(int32(u))
			}
			want := oracleProximity(adj, spamSrc)
			if ko := TopK(want, k); !slices.Equal(kc, ko) || slices.Equal(kt, ko) {
				t.Fatalf("seed %d %s: decided κ differs from the to-tolerance κ, and the oracle does not side with the decision", seed, name)
			}
			t.Logf("seed %d %s: the to-tolerance walk misorders its own boundary (fixed-point gap %g)", seed, name, oracleGap(want, k))
		}
	}
}

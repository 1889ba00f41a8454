package source

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sourcerank/internal/graph"
	"sourcerank/internal/linalg"
	"sourcerank/internal/pagegraph"
)

func sameCSRBits(a, b *linalg.CSR) error {
	if a.Rows != b.Rows || a.ColsN != b.ColsN {
		return fmt.Errorf("dims (%d,%d) vs (%d,%d)", a.Rows, a.ColsN, b.Rows, b.ColsN)
	}
	if !reflect.DeepEqual(a.RowPtr, b.RowPtr) {
		return fmt.Errorf("RowPtr differs")
	}
	if !reflect.DeepEqual(a.Cols, b.Cols) {
		return fmt.Errorf("Cols differs")
	}
	for k := range a.Vals {
		if a.Vals[k] != b.Vals[k] {
			return fmt.Errorf("Vals[%d] = %v vs %v", k, a.Vals[k], b.Vals[k])
		}
	}
	return nil
}

func sameSourceGraphBits(got, want *Graph) error {
	if !reflect.DeepEqual(got.Labels, want.Labels) {
		return fmt.Errorf("Labels differ")
	}
	if !reflect.DeepEqual(got.PageCount, want.PageCount) {
		return fmt.Errorf("PageCount differs: %v vs %v", got.PageCount, want.PageCount)
	}
	if got.NumEdges != want.NumEdges {
		return fmt.Errorf("NumEdges %d vs %d", got.NumEdges, want.NumEdges)
	}
	if err := sameCSRBits(got.Counts, want.Counts); err != nil {
		return fmt.Errorf("Counts: %w", err)
	}
	if err := sameCSRBits(got.T, want.T); err != nil {
		return fmt.Errorf("T: %w", err)
	}
	return nil
}

// targetSet returns the deduped sorted set of sources page p links into.
func targetSet(pg *pagegraph.Graph, p pagegraph.PageID) []pagegraph.SourceID {
	var s []pagegraph.SourceID
	for _, q := range pg.OutLinks(p) {
		s = append(s, pg.SourceOf(q))
	}
	slices.Sort(s)
	return slices.Compact(s)
}

// setDiff returns old\new and new\old for two sorted deduped sets.
func setDiff(oldSet, newSet []pagegraph.SourceID) (removed, added []pagegraph.SourceID) {
	i, j := 0, 0
	for i < len(oldSet) || j < len(newSet) {
		switch {
		case j == len(newSet) || (i < len(oldSet) && oldSet[i] < newSet[j]):
			removed = append(removed, oldSet[i])
			i++
		case i == len(oldSet) || newSet[j] < oldSet[i]:
			added = append(added, newSet[j])
			j++
		default:
			i++
			j++
		}
	}
	return removed, added
}

func randomPageGraph(rng *rand.Rand, sources, pages, links int) *pagegraph.Graph {
	pg := pagegraph.New()
	for s := 0; s < sources; s++ {
		pg.AddSource(fmt.Sprintf("s%03d", s))
	}
	for p := 0; p < pages; p++ {
		pg.AddPage(pagegraph.SourceID(rng.Intn(sources)))
	}
	for l := 0; l < links; l++ {
		pg.AddLink(pagegraph.PageID(rng.Intn(pages)), pagegraph.PageID(rng.Intn(pages)))
	}
	return pg
}

// TestIncrementalMatchesBuild drives random page-graph mutations through
// an Incremental and asserts after every emit that the result is bitwise
// identical to a cold Build of the mutated page graph — the streaming
// pipeline's equivalence contract at the source layer.
func TestIncrementalMatchesBuild(t *testing.T) {
	for _, opt := range []Options{{}, {Weighting: Uniform}} {
		opt := opt
		t.Run(fmt.Sprintf("w=%v", opt.Weighting), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			pg := randomPageGraph(rng, 12, 80, 200)
			inc, err := NewIncremental(pg, opt)
			if err != nil {
				t.Fatalf("NewIncremental: %v", err)
			}
			for step := 0; step < 400; step++ {
				switch op := rng.Intn(10); {
				case op == 0:
					id := pg.AddSource(fmt.Sprintf("x%03d", step))
					if got := inc.AddSource(pg.SourceLabel(id)); got != id {
						t.Fatalf("AddSource id %d, want %d", got, id)
					}
				case op <= 2:
					s := pagegraph.SourceID(rng.Intn(pg.NumSources()))
					pg.AddPage(s)
					inc.AddPage(s)
				default:
					p := pagegraph.PageID(rng.Intn(pg.NumPages()))
					before := targetSet(pg, p)
					row := slices.Clone(pg.OutLinks(p))
					switch mut := rng.Intn(4); {
					case mut == 0 && len(row) > 0:
						row = slices.Delete(row, 0, 1+rng.Intn(len(row)))
					case mut == 1 && len(row) > 0:
						row = append(row, row[rng.Intn(len(row))]) // parallel duplicate
					default:
						row = append(row, pagegraph.PageID(rng.Intn(pg.NumPages())))
					}
					if err := pg.SetOutLinks(p, row); err != nil {
						t.Fatalf("SetOutLinks: %v", err)
					}
					removed, added := setDiff(before, targetSet(pg, p))
					inc.UpdatePage(pg.SourceOf(p), removed, added)
				}
				if step%23 != 0 {
					continue
				}
				got := inc.Emit()
				want, err := Build(pg, opt)
				if err != nil {
					t.Fatalf("Build: %v", err)
				}
				if err := sameSourceGraphBits(got, want); err != nil {
					t.Fatalf("step %d: emitted graph diverged: %v", step, err)
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("step %d: Validate: %v", step, err)
				}
				// The emitted graph's structure must match the one a cold
				// rebuild derives from Counts sparsity.
				cold := want.Structure()
				st := got.Structure()
				if st.NumNodes() != cold.NumNodes() || st.NumEdges() != cold.NumEdges() {
					t.Fatalf("step %d: structure dims (%d,%d) vs (%d,%d)",
						step, st.NumNodes(), st.NumEdges(), cold.NumNodes(), cold.NumEdges())
				}
				for u := 0; u < cold.NumNodes(); u++ {
					if !slices.Equal(st.Successors(graph.NodeID(u)), cold.Successors(graph.NodeID(u))) {
						t.Fatalf("step %d: structure row %d differs", step, u)
					}
				}
			}
		})
	}
}

// TestIncrementalEmitReuse checks the no-change fast paths: an untouched
// maintainer returns the same *Graph pointer, and page-count-only churn
// shares the unchanged matrices.
func TestIncrementalEmitReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pg := randomPageGraph(rng, 8, 40, 100)
	inc, err := NewIncremental(pg, Options{})
	if err != nil {
		t.Fatalf("NewIncremental: %v", err)
	}
	first := inc.Emit()
	if second := inc.Emit(); second != first {
		t.Fatal("no-op emit should return the identical graph pointer")
	}
	inc.AddPage(0)
	third := inc.Emit()
	if third == first {
		t.Fatal("page-count change must produce a new graph")
	}
	if third.Counts != first.Counts || third.T != first.T {
		t.Fatal("page-count-only change should share Counts and T")
	}
	if &third.Labels[0] != &first.Labels[0] {
		t.Fatal("labels backing array should stay shared")
	}
	// A consensus-invariant link (parallel duplicate) is a no-op too.
	var p pagegraph.PageID = -1
	for q := 0; q < pg.NumPages(); q++ {
		if len(pg.OutLinks(pagegraph.PageID(q))) > 0 {
			p = pagegraph.PageID(q)
			break
		}
	}
	if p >= 0 {
		before := targetSet(pg, p)
		pg.AddLink(p, pg.OutLinks(p)[0])
		removed, added := setDiff(before, targetSet(pg, p))
		if len(removed)+len(added) != 0 {
			t.Fatalf("duplicate link changed target set: -%v +%v", removed, added)
		}
		inc.UpdatePage(pg.SourceOf(p), removed, added)
		if inc.Emit() != third {
			t.Fatal("consensus-invariant churn should reuse the previous graph")
		}
	}
}

// drift adds links that raise consensus counts inside existing cells:
// each picks a page whose source already links into some source the page
// does not, and links the page there. It reports how many it added.
func drift(t *testing.T, rng *rand.Rand, pg *pagegraph.Graph, inc *Incremental, sg *Graph, links int) int {
	t.Helper()
	added := 0
	for try := 0; try < 50*links && added < links; try++ {
		p := pagegraph.PageID(rng.Intn(pg.NumPages()))
		s := pg.SourceOf(p)
		cols, _ := sg.Counts.Row(int(s))
		if len(cols) == 0 {
			continue
		}
		c := pagegraph.SourceID(cols[rng.Intn(len(cols))])
		before := targetSet(pg, p)
		if _, found := slices.BinarySearch(before, c); found || len(pg.PagesOf(c)) == 0 {
			continue
		}
		pg.AddLink(p, pg.PagesOf(c)[0])
		removed, add := setDiff(before, targetSet(pg, p))
		inc.UpdatePage(s, removed, add)
		added++
	}
	return added
}

// TestIncrementalEmitSharesPatternOnDrift: an emit after count drift keeps
// the previous RowPtr and Cols arrays of Counts and T and writes only new
// values; an emit after a rewire writes new arrays; both equal Build bit
// for bit, and a drift after the rewire shares the rewire's arrays.
func TestIncrementalEmitSharesPatternOnDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pg := randomPageGraph(rng, 10, 80, 300)
	inc, err := NewIncremental(pg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, got *Graph) {
		t.Helper()
		want, err := Build(pg, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sameSourceGraphBits(got, want); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	shares := func(a, b *linalg.CSR) bool { return &a.RowPtr[0] == &b.RowPtr[0] && &a.Cols[0] == &b.Cols[0] }
	prev := inc.Emit()
	for round := 0; round < 3; round++ {
		if drift(t, rng, pg, inc, prev, 4) == 0 {
			t.Fatal("no drift link found")
		}
		ver := inc.StructureVersion()
		got := inc.Emit()
		if ver != inc.StructureVersion() || got == prev {
			t.Fatal("drift moved the structure version or emitted nothing")
		}
		check("drift", got)
		if !shares(got.T, prev.T) || !shares(got.Counts, prev.Counts) {
			t.Fatalf("round %d: drift emit copied RowPtr/Cols", round)
		}
		if &got.T.Vals[0] == &prev.T.Vals[0] || &got.Counts.Vals[0] == &prev.Counts.Vals[0] {
			t.Fatalf("round %d: drift emit wrote into the previous values", round)
		}
		// Rewire: a link into a source the page's source never linked to.
		rewired := false
		for _, p := range rng.Perm(pg.NumPages()) {
			s := pg.SourceOf(pagegraph.PageID(p))
			cols, _ := got.Counts.Row(int(s))
			for q := 0; q < pg.NumPages() && !rewired; q++ {
				if !slices.Contains(cols, int32(pg.SourceOf(pagegraph.PageID(q)))) {
					before := targetSet(pg, pagegraph.PageID(p))
					pg.AddLink(pagegraph.PageID(p), pagegraph.PageID(q))
					removed, added := setDiff(before, targetSet(pg, pagegraph.PageID(p)))
					inc.UpdatePage(s, removed, added)
					rewired = true
				}
			}
			if rewired {
				break
			}
		}
		if !rewired {
			t.Fatal("no rewire link found")
		}
		prev = inc.Emit()
		check("rewire", prev)
		if shares(prev.T, got.T) || shares(prev.Counts, got.Counts) {
			t.Fatalf("round %d: rewire emit kept the old sparsity arrays", round)
		}
	}
}

package pagegraph_test

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"sourcerank/internal/gen"
	"sourcerank/internal/pagegraph"
	"sourcerank/internal/source"
	"sourcerank/internal/spam"
)

// corpus generates the UK2002×0.02 corpus and its serialized form.
func corpus(t testing.TB) (*pagegraph.Graph, []byte) {
	t.Helper()
	ds, err := gen.GeneratePreset(gen.UK2002, 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.Pages.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return ds.Pages, buf.Bytes()
}

// The gate that keeps the reader bulk: one string for all labels, a fixed
// handful of arrays and one goroutine per check worker (at most one per
// 64 Ki words, so eight on this corpus however many cores there are). A
// per-label, per-row or per-word allocation anywhere in the path is
// thousands of times over it.
func TestReadFromAllocs(t *testing.T) {
	g, raw := corpus(t)
	r := bytes.NewReader(raw)
	allocs := testing.AllocsPerRun(5, func() {
		r.Reset(raw)
		if _, err := pagegraph.ReadFrom(r); err != nil {
			t.Fatal(err)
		}
	})
	if limit := 32.0; allocs > limit {
		t.Fatalf("%.0f allocations per ReadFrom of %d sources / %d pages / %d links, limit %.0f",
			allocs, g.NumSources(), g.NumPages(), g.NumLinks(), limit)
	}
}

// The layers above cannot tell a read graph from the generator's: the
// source aggregation is equal, and stays equal after every injector has
// grown pages, sources and rows on both.
func TestReadGraphServesLikeGenerated(t *testing.T) {
	generated, raw := corpus(t)
	read, err := pagegraph.ReadFrom(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	requireSameSourceGraph := func(stage string) {
		t.Helper()
		want, err := source.Build(generated, source.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := source.Build(read, source.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Labels, want.Labels) || !reflect.DeepEqual(got.PageCount, want.PageCount) ||
			got.NumEdges != want.NumEdges || !reflect.DeepEqual(got.Counts, want.Counts) || !reflect.DeepEqual(got.T, want.T) {
			t.Fatalf("%s: source graph of the read corpus differs from the generated one's", stage)
		}
		if err := read.Validate(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
	}
	requireSameSourceGraph("as read")

	inject := func(g *pagegraph.Graph) {
		t.Helper()
		target := pagegraph.PageID(3)
		victims := []pagegraph.PageID{10, 11, 12, 500}
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		_, err := spam.InjectIntraSource(g, target, 20)
		must(err)
		_, err = spam.InjectInterSource(g, target, g.SourceOf(target)+1, 20)
		must(err)
		_, err = spam.InjectCollusionNetwork(g, target, 5)
		must(err)
		must(spam.Hijack(g, victims, target))
		_, err = spam.Honeypot(g, victims, target, 4)
		must(err)
		_, err = spam.LinkFarm(g, 2, 30, []pagegraph.PageID{target, 40})
		must(err)
		must(spam.LinkExchange(g, []pagegraph.SourceID{1, 2, 5, 8}, gen.NewRNG(7)))
	}
	inject(generated)
	inject(read)
	requireSameSourceGraph("after injection")
}

var sinkGraph *pagegraph.Graph

// MB/s of corpus bytes read; the cost model is one copy into the arrays
// plus the range checks on every core (DESIGN.md §8). B/op over the
// bytes read is about 1.33: the row starts, 8 bytes a page, are most of
// what is allocated beyond the input's own size.
func BenchmarkReadFrom(b *testing.B) {
	_, raw := corpus(b)
	r := bytes.NewReader(raw)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(raw)
		g, err := pagegraph.ReadFrom(r)
		if err != nil {
			b.Fatal(err)
		}
		sinkGraph = g
	}
}

func BenchmarkWrite(b *testing.B) {
	g, raw := corpus(b)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Write(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

package main

import (
	"math"
	"testing"

	"sourcerank/internal/gen"
	"sourcerank/internal/linalg"
	"sourcerank/internal/rank"
)

// TestPageRankSlabMatchesHeap checks the -slab-dir route against the plain
// one: at either precision, with and without a residency cap, the
// out-of-core solve must return rank.PageRank's scores bit for bit.
func TestPageRankSlabMatchesHeap(t *testing.T) {
	ds, err := gen.GeneratePreset(gen.UK2002, 0.002, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, prec := range []linalg.Precision{linalg.Float64, linalg.Float32} {
		want, err := rank.PageRank(ds.Pages.ToGraph(), rank.Options{Alpha: 0.85, Workers: 2, Precision: prec})
		if err != nil {
			t.Fatal(err)
		}
		for _, maxResident := range []int64{0, 64 << 10} {
			got, stats, err := pageRankSlab(ds.Pages, 0.85, 2, prec, t.TempDir(), maxResident)
			if err != nil {
				t.Fatalf("%v, cap %d: %v", prec, maxResident, err)
			}
			if stats != want.Stats {
				t.Fatalf("%v, cap %d: stats %+v, heap solve %+v", prec, maxResident, stats, want.Stats)
			}
			if len(got) != len(want.Scores) {
				t.Fatalf("%v, cap %d: %d scores, heap solve %d", prec, maxResident, len(got), len(want.Scores))
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want.Scores[i]) {
					t.Fatalf("%v, cap %d: score %d = %v, heap solve %v", prec, maxResident, i, got[i], want.Scores[i])
				}
			}
		}
	}
}

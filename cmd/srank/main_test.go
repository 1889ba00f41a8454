package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"sourcerank/internal/gen"
	"sourcerank/internal/linalg"
	"sourcerank/internal/rank"
	"sourcerank/internal/server"
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

// TestCheckHonoured: a flag an algorithm cannot honour is refused by name,
// never dropped; everything an algorithm does honour passes.
func TestCheckHonoured(t *testing.T) {
	cases := []struct {
		algo                    string
		topK, slab, maxResident bool
		prec                    linalg.Precision
		wantFlag                string // "" = accepted
	}{
		{algo: "srsr", topK: true},
		{algo: "sourcerank"},
		{algo: "pagerank", slab: true, maxResident: true, prec: linalg.Float32},
		{algo: "trustrank"},
		{algo: "hits"},
		{algo: "salsa"},
		{algo: "proximity"},
		{algo: "nosuch", topK: true, slab: true, maxResident: true, prec: linalg.Float32}, // main reports the unknown algorithm
		{algo: "sourcerank", topK: true, wantFlag: "-throttle-topk"},
		{algo: "pagerank", topK: true, wantFlag: "-throttle-topk"},
		{algo: "trustrank", topK: true, wantFlag: "-throttle-topk"},
		{algo: "proximity", topK: true, wantFlag: "-throttle-topk"},
		{algo: "srsr", slab: true, wantFlag: "-slab-dir"},
		{algo: "sourcerank", slab: true, wantFlag: "-slab-dir"},
		{algo: "trustrank", slab: true, wantFlag: "-slab-dir"},
		{algo: "hits", slab: true, wantFlag: "-slab-dir"},
		{algo: "salsa", slab: true, wantFlag: "-slab-dir"},
		{algo: "proximity", slab: true, wantFlag: "-slab-dir"},
		{algo: "srsr", maxResident: true, wantFlag: "-max-resident"},
		{algo: "sourcerank", maxResident: true, wantFlag: "-max-resident"},
		{algo: "srsr", prec: linalg.Float32, wantFlag: "-precision float32"},
		{algo: "sourcerank", prec: linalg.Float32, wantFlag: "-precision float32"},
		{algo: "trustrank", prec: linalg.Float32, wantFlag: "-precision float32"},
		{algo: "hits", prec: linalg.Float32, wantFlag: "-precision float32"},
		{algo: "salsa", prec: linalg.Float32, wantFlag: "-precision float32"},
		{algo: "proximity", prec: linalg.Float32, wantFlag: "-precision float32"},
	}
	for _, c := range cases {
		err := checkHonoured(c.algo, c.topK, c.slab, c.maxResident, c.prec)
		switch {
		case c.wantFlag == "" && err != nil:
			t.Errorf("%+v: refused: %v", c, err)
		case c.wantFlag != "" && (err == nil || !strings.Contains(err.Error(), c.wantFlag) || !strings.Contains(err.Error(), "-algo "+c.algo)):
			t.Errorf("%+v: err = %v, want one naming %s and the algorithm", c, err, c.wantFlag)
		}
	}
}

// TestMain lets a test run this binary as srank itself: with
// SRANK_TEST_RUN_MAIN set, the process is main() over its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("SRANK_TEST_RUN_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runSrank(t *testing.T, args ...string) (stdout string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-preset", "UK2002", "-scale", "0.002", "-seed", "1"}, args...)...)
	cmd.Env = append(os.Environ(), "SRANK_TEST_RUN_MAIN=1")
	out, err := cmd.Output()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatal(err)
	}
	return string(out), cmd.ProcessState.ExitCode()
}

// TestSaveAndRefusalEndToEnd drives the command itself: -save is honoured
// for a page-level algorithm (one score per page, in the format the
// source-level algorithms always wrote), and a flag the algorithm cannot
// honour exits 2 before any work is printed.
func TestSaveAndRefusalEndToEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hits.vec")
	out, exit := runSrank(t, "-algo", "hits", "-save", path)
	if exit != 0 {
		t.Fatalf("-algo hits -save: exit %d\n%s", exit, out)
	}
	ds, err := gen.GeneratePreset(gen.UK2002, 0.002, 1)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := linalg.ReadVectorFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != ds.Pages.NumPages() {
		t.Fatalf("saved %d scores, corpus has %d pages", len(scores), ds.Pages.NumPages())
	}
	if want := fmt.Sprintf("wrote %d scores to %s\n", len(scores), path); !strings.HasSuffix(out, want) {
		t.Errorf("stdout does not end with %q:\n%s", want, out)
	}

	if out, exit := runSrank(t, "-algo", "salsa", "-slab-dir", t.TempDir()); exit != 2 || out != "" {
		t.Errorf("-algo salsa -slab-dir: exit %d, stdout %q; want exit 2 and nothing printed", exit, out)
	}
	if out, exit := runSrank(t, "-algo", "srsr", "-precision", "float32"); exit != 2 || out != "" {
		t.Errorf("-algo srsr -precision float32: exit %d, stdout %q; want exit 2 and nothing printed", exit, out)
	}
	if out, exit := runSrank(t, "-algo", "pagerank", "-throttle-topk", "5"); exit != 2 || out != "" {
		t.Errorf("-algo pagerank -throttle-topk 5: exit %d, stdout %q; want exit 2 and nothing printed", exit, out)
	}
}

// TestTrustRankMatchesServed: srank -algo trustrank seeds the walk with
// the served TrustRank's seeds (server.TrustedSeeds, ties to the lower
// ID), so on a corpus whose 10th-largest source is a many-way tie it
// still prints the cold builder's vector, bit for bit.
func TestTrustRankMatchesServed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trustrank.vec")
	if out, exit := runSrank(t, "-scale", "0.02", "-algo", "trustrank", "-save", path); exit != 0 {
		t.Fatalf("-algo trustrank: exit %d\n%s", exit, out)
	}
	got, err := linalg.ReadVectorFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := gen.GeneratePreset(gen.UK2002, 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := server.BuildSnapshot(ds.Pages, ds.SpamSources, server.BuildConfig{Alpha: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	want := snap.Set(server.AlgoTrustRank).ScoresView()
	if len(got) != len(want) {
		t.Fatalf("srank wrote %d scores, the builder served %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("score %d = %v, served %v", i, got[i], want[i])
		}
	}
}

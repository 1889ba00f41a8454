package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
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
		{algo: "sourcerank", topK: true, wantFlag: "-throttle-topk"},
		{algo: "pagerank", topK: true, wantFlag: "-throttle-topk"},
		{algo: "trustrank", topK: true, wantFlag: "-throttle-topk"},
		{algo: "srsr", slab: true, wantFlag: "-slab-dir"},
		{algo: "sourcerank", slab: true, wantFlag: "-slab-dir"},
		{algo: "trustrank", slab: true, wantFlag: "-slab-dir"},
		{algo: "srsr", maxResident: true, wantFlag: "-max-resident"},
		{algo: "sourcerank", maxResident: true, wantFlag: "-max-resident"},
		{algo: "srsr", prec: linalg.Float32, wantFlag: "-precision float32"},
		{algo: "sourcerank", prec: linalg.Float32, wantFlag: "-precision float32"},
		{algo: "trustrank", prec: linalg.Float32, wantFlag: "-precision float32"},
	}
	if err := checkHonoured("nosuch", true, true, true, linalg.Float32); !errors.Is(err, errUnknownAlgorithm) || !strings.Contains(err.Error(), `"nosuch"`) {
		t.Errorf("unknown algorithm with every flag: err = %v, want the unknown algorithm named", err)
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

func runSrank(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-preset", "UK2002", "-scale", "0.002", "-seed", "1"}, args...)...)
	cmd.Env = append(os.Environ(), "SRANK_TEST_RUN_MAIN=1")
	var errBuf strings.Builder
	cmd.Stderr = &errBuf
	out, err := cmd.Output()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatal(err)
	}
	return string(out), errBuf.String(), cmd.ProcessState.ExitCode()
}

// TestSaveAndRefusalEndToEnd drives the command itself: -save is honoured
// for the page-level algorithm (one score per page, in the format the
// source-level algorithms write), a flag the algorithm cannot honour
// exits 2 before any work is printed, and an algorithm srank does not run
// exits 1 naming it (TestUnknownAlgoRefusedBeforeCorpus).
func TestSaveAndRefusalEndToEnd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pagerank.vec")
	out, _, exit := runSrank(t, "-algo", "pagerank", "-save", path)
	if exit != 0 {
		t.Fatalf("-algo pagerank -save: exit %d\n%s", exit, out)
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

	if out, _, exit := runSrank(t, "-algo", "trustrank", "-slab-dir", t.TempDir()); exit != 2 || out != "" {
		t.Errorf("-algo trustrank -slab-dir: exit %d, stdout %q; want exit 2 and nothing printed", exit, out)
	}
	if out, _, exit := runSrank(t, "-algo", "srsr", "-precision", "float32"); exit != 2 || out != "" {
		t.Errorf("-algo srsr -precision float32: exit %d, stdout %q; want exit 2 and nothing printed", exit, out)
	}
	if out, _, exit := runSrank(t, "-algo", "pagerank", "-throttle-topk", "5"); exit != 2 || out != "" {
		t.Errorf("-algo pagerank -throttle-topk 5: exit %d, stdout %q; want exit 2 and nothing printed", exit, out)
	}
}

// TestUnknownAlgoRefusedBeforeCorpus: an -algo value srank does not run
// exits 1 naming it before the corpus is generated or read, so no
// "corpus:" line is printed.
func TestUnknownAlgoRefusedBeforeCorpus(t *testing.T) {
	for _, algo := range []string{"hits", "salsa", "proximity"} {
		out, stderr, exit := runSrank(t, "-algo", algo)
		if want := fmt.Sprintf("unknown algorithm %q", algo); exit != 1 || !strings.Contains(stderr, want) {
			t.Errorf("-algo %s: exit %d, stderr %q; want exit 1 and %s", algo, exit, stderr, want)
		}
		if strings.Contains(out, "corpus:") {
			t.Errorf("-algo %s: the corpus was loaded before the refusal:\n%s", algo, out)
		}
	}
}

// TestAlgoListsAgree: the -algo usage string is where the root census
// (census_test.go) reads srank's algorithms from, so checkHonoured's list
// and main's switch must accept exactly its values, neither more nor less.
func TestAlgoListsAgree(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var usage []string
	cases := map[string][]string{} // enclosing func → string literals of its first switch's cases
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 3 {
			return true
		}
		if name, ok := call.Args[0].(*ast.BasicLit); ok && name.Value == `"algo"` {
			lit, err := strconv.Unquote(call.Args[2].(*ast.BasicLit).Value)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range strings.Split(lit, "|") {
				usage = append(usage, strings.TrimSpace(v))
			}
		}
		return true
	})
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "main" && fn.Name.Name != "checkHonoured" {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || cases[fn.Name.Name] != nil {
				return true
			}
			if star, ok := sw.Tag.(*ast.StarExpr); !(ok && isIdent(star.X, "algo")) && !isIdent(sw.Tag, "algo") {
				return true
			}
			for _, c := range sw.Body.List {
				for _, e := range c.(*ast.CaseClause).List {
					v, err := strconv.Unquote(e.(*ast.BasicLit).Value)
					if err != nil {
						t.Fatal(err)
					}
					cases[fn.Name.Name] = append(cases[fn.Name.Name], v)
				}
			}
			return false
		})
	}
	slices.Sort(usage)
	if len(usage) == 0 {
		t.Fatal("no -algo flag in main.go")
	}
	for _, fn := range []string{"checkHonoured", "main"} {
		got := cases[fn]
		slices.Sort(got)
		if !slices.Equal(got, usage) {
			t.Errorf("%s's switch accepts %v; the -algo usage lists %v", fn, got, usage)
		}
	}
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// TestTrustRankMatchesServed: srank -algo trustrank seeds the walk with
// the served TrustRank's seeds (server.TrustedSeeds, ties to the lower
// ID), so on a corpus whose 10th-largest source is a many-way tie it
// still prints the cold builder's vector, bit for bit.
func TestTrustRankMatchesServed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trustrank.vec")
	if out, _, exit := runSrank(t, "-scale", "0.02", "-algo", "trustrank", "-save", path); exit != 0 {
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

// TestSpamFileMatchesServed: a -spam file is read as srserve reads it —
// comments skipped, duplicates folded, and over a preset's planted labels
// — so srank reports the served label count and seeds SRSR with the
// served set, printing the builder's vector bit for bit.
func TestSpamFileMatchesServed(t *testing.T) {
	ds, err := gen.GeneratePreset(gen.UK2002, 0.002, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	spamPath, vecPath := filepath.Join(dir, "corpus.spam"), filepath.Join(dir, "srsr.vec")
	a, b := ds.SpamSources[1], ds.SpamSources[0]
	body := fmt.Sprintf("# planted\n%d\n%d\n%d\n", a, a, b)
	if err := os.WriteFile(spamPath, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	out, stderr, exit := runSrank(t, "-algo", "srsr", "-spam", spamPath, "-save", vecPath)
	if exit != 0 {
		t.Fatalf("-spam %q: exit %d\n%s%s", body, exit, out, stderr)
	}
	labels, err := gen.ReadSpamLabels(spamPath, ds.Pages.NumSources())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := server.BuildSnapshot(ds.Pages, labels, server.BuildConfig{Alpha: 0.85})
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf(", %d labeled spam\n", snap.Corpus().SpamLabeled); snap.Corpus().SpamLabeled != 2 || !strings.Contains(out, want) {
		t.Errorf("served %d labels; srank printed\n%swant %q", snap.Corpus().SpamLabeled, out, want)
	}
	got, err := linalg.ReadVectorFile(vecPath)
	if err != nil {
		t.Fatal(err)
	}
	want := snap.Set(server.AlgoSRSR).ScoresView()
	if len(got) != len(want) {
		t.Fatalf("srank wrote %d scores, the builder served %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("score %d = %v, served %v", i, got[i], want[i])
		}
	}
}

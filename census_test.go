package bench

// The census (DESIGN §16, "Every flag names a user"): every cmd/*
// program, every flag one defines in a non-test file, and every value an
// -algo flag's usage string lists ("a | b | c"), must name its user in
// censusPrograms or census below, with a reason from a closed vocabulary.
// A program or flag nobody needs is deleted, not listed; an entry whose
// program or flag is gone is stale.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"sourcerank/internal/experiments"
)

// census is the one source: "<command> -<flag>" or "<command> -algo
// <value>" → its user. The reason is one of
//
//	paper <id>        an artifact of DESIGN §3's experiment index (T1, F5, …)
//	experiment <id>   an extension experiment `cmd/experiments -list` prints
//	served            a path srserve serves, or a knob of how it serves
//	operator          an address, path, interval, budget, output or corpus choice
//	ci <job>          a job of .github/workflows/ci.yml that runs the command with it
//	roadmap N         named by open ROADMAP item N (at most censusMaxRoadmap)
var census = map[string]string{
	// The out-of-core recorder (ROADMAP 3a folds it into the benchmark).
	"bench -preset":        "ci outofcore-bench-smoke",
	"bench -scale":         "ci outofcore-bench-smoke",
	"bench -seed":          "ci outofcore-bench-smoke",
	"bench -out":           "ci outofcore-bench-smoke",
	"bench -workers":       "operator",
	"bench -residency-cap": "operator",

	// Every table and figure of the paper, and the extension experiments.
	"experiments -exp":      "paper F5",
	"experiments -list":     "operator",
	"experiments -scale":    "operator",
	"experiments -seed":     "operator",
	"experiments -alpha":    "paper F2",
	"experiments -targets":  "paper F6",
	"experiments -workers":  "operator",
	"experiments -datasets": "operator",

	// Corpora on disk, in memory or through shard-run spills.
	"graphgen -preset":         "operator",
	"graphgen -scale":          "operator",
	"graphgen -seed":           "operator",
	"graphgen -out":            "operator",
	"graphgen -spill-dir":      "operator",
	"graphgen -spill-buffer":   "operator",
	"graphgen -slab-precision": "roadmap 23",
	"graphgen -spill-workers":  "operator",

	"graphstats -pages":  "operator",
	"graphstats -preset": "operator",
	"graphstats -scale":  "operator",
	"graphstats -seed":   "operator",

	// One ranking per run: SRSR and the paper's two baselines (the
	// un-throttled SourceRank of Fig. 5, page-level PageRank of Figs. 6–7),
	// and the TrustRank srserve serves, bit for bit.
	"srank -pages":           "operator",
	"srank -spam":            "operator",
	"srank -preset":          "operator",
	"srank -scale":           "operator",
	"srank -seed":            "operator",
	"srank -algo":            "paper F5",
	"srank -algo srsr":       "paper F5",
	"srank -algo sourcerank": "paper F5",
	"srank -algo pagerank":   "paper F6",
	"srank -algo trustrank":  "served",
	"srank -alpha":           "paper F2",
	"srank -top":             "operator",
	"srank -throttle-topk":   "paper F5",
	"srank -workers":         "operator",
	"srank -precision":       "roadmap 23",
	"srank -save":            "operator",
	"srank -cpuprofile":      "operator",
	"srank -memprofile":      "operator",
	"srank -slab-dir":        "operator",
	"srank -max-resident":    "operator",

	"srserve -addr":             "operator",
	"srserve -pages":            "operator",
	"srserve -spam":             "operator",
	"srserve -preset":           "operator",
	"srserve -scale":            "operator",
	"srserve -seed":             "operator",
	"srserve -alpha":            "paper F2",
	"srserve -throttle-topk":    "paper F5",
	"srserve -workers":          "operator",
	"srserve -refresh":          "served",
	"srserve -max-backoff":      "served",
	"srserve -staleness-budget": "served",
	"srserve -max-inflight":     "served",
	"srserve -request-timeout":  "served",
	"srserve -scores":           "served",
	"srserve -dump-scores":      "operator",
	"srserve -pprof-addr":       "operator",
	"srserve -replica-of":       "served",
	"srserve -sync-interval":    "served",
	"srserve -sync-timeout":     "served",
	"srserve -sync-max-backoff": "served",
}

// censusPrograms is the same for whole commands: "<command>" (its
// directory under cmd/) → its user, in census's vocabulary.
var censusPrograms = map[string]string{
	"bench":       "ci outofcore-bench-smoke",
	"experiments": "paper F5", // every artifact of DESIGN §3's index
	"graphgen":    "operator", // writes corpus files
	"graphstats":  "operator", // ROADMAP 26 weighs it against -exp table1
	"srank":       "paper F5",
	"srserve":     "served",
}

const censusMaxRoadmap = 4

// censusVocab is what the reasons are checked against.
type censusVocab struct {
	paper       map[string]bool   // DESIGN §3 experiment-index ids
	experiments map[string]bool   // ids `cmd/experiments -list` prints
	ci          map[string]string // job name → its text in the workflow
	roadmap     map[string]bool   // open ROADMAP item numbers
}

// censusDefiners are the flag package's definitions, by the index of the
// flag name among their arguments; the usage string follows the name
// (Var, Func, BoolFunc) or the default value (every other).
var censusDefiners = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Int": 0, "Int64": 0, "String": 0, "Uint": 0, "Uint64": 0,
	"Func": 0, "BoolFunc": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1, "StringVar": 1,
	"UintVar": 1, "Uint64Var": 1, "TextVar": 1, "Var": 1,
}

// censusFlags returns every flag defined in each command's files, keyed
// as in census, plus one key per value an -algo flag's usage lists. A
// definition is a call of a censusDefiners function on package flag or on
// a variable the same file assigns from flag.NewFlagSet.
func censusFlags(fset *token.FileSet, cmds map[string][]*ast.File) (map[string]token.Position, error) {
	found := map[string]token.Position{}
	var err error
	for cmd, files := range cmds {
		for _, f := range files {
			sets := map[string]bool{"flag": true}
			ast.Inspect(f, func(n ast.Node) bool {
				if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
					x, fn, _, ok := censusCall(as.Rhs[0])
					if id, isIdent := as.Lhs[0].(*ast.Ident); ok && isIdent && x == "flag" && fn == "NewFlagSet" {
						sets[id.Name] = true
					}
				}
				x, fn, args, ok := censusCall(n)
				at, def := censusDefiners[fn]
				if !ok || !sets[x] || !def || err != nil {
					return true
				}
				pos := fset.Position(n.Pos())
				name, ok := censusString(args[at])
				if !ok {
					err = fmt.Errorf("%s: %s's flag name is not a string literal", pos, cmd)
					return false
				}
				key := cmd + " -" + name
				found[key] = pos
				if name != "algo" {
					return true
				}
				use := at + 2
				if fn == "Var" || strings.HasSuffix(fn, "Func") {
					use = at + 1
				}
				usage, ok := censusString(args[use])
				if !ok {
					err = fmt.Errorf("%s: %s's -algo usage is not a string literal", pos, cmd)
					return false
				}
				for _, v := range strings.Split(usage, "|") {
					v = strings.TrimSpace(v)
					if v == "" || strings.ContainsAny(v, " \t") {
						err = fmt.Errorf("%s: %s's -algo usage %q is not of the form a | b | c", pos, cmd, usage)
						return false
					}
					found[key+" "+v] = pos
				}
				return true
			})
		}
	}
	return found, err
}

// censusCall splits a call x.fn(args…); ok is false for any other node.
func censusCall(n ast.Node) (x, fn string, args []ast.Expr, ok bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return "", "", nil, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", nil, false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", nil, false
	}
	return id.Name, sel.Sel.Name, call.Args, true
}

// censusString is the value of a string literal.
func censusString(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}

// censusCheck returns every violation: a flag or value census does not
// list, a stale entry, a reason outside the vocabulary, and more roadmap
// entries than the cap.
func censusCheck(found map[string]token.Position, census map[string]string, v censusVocab) []string {
	var bad []string
	for key, pos := range found {
		if _, ok := census[key]; !ok {
			bad = append(bad, fmt.Sprintf("%s: %s names no user: add it to the census with its reason, or delete it", pos, key))
		}
	}
	roadmap := 0
	for key, reason := range census {
		if _, ok := found[key]; !ok {
			bad = append(bad, fmt.Sprintf("census entry %s is stale: no command defines it", key))
		}
		if strings.HasPrefix(reason, "roadmap ") {
			roadmap++
		}
		if why := censusReasonBad(key, reason, v); why != "" {
			bad = append(bad, fmt.Sprintf("census entry %s: reason %q %s", key, reason, why))
		}
	}
	if roadmap > censusMaxRoadmap {
		bad = append(bad, fmt.Sprintf("census holds %d roadmap entries, cap is %d", roadmap, censusMaxRoadmap))
	}
	sort.Strings(bad)
	return bad
}

// censusReasonBad says why reason cannot be key's user, or "" if it can.
func censusReasonBad(key, reason string, v censusVocab) string {
	kind, arg, _ := strings.Cut(reason, " ")
	switch kind {
	case "served", "operator":
		if arg == "" {
			return ""
		}
	case "paper":
		if !v.paper[arg] {
			return "names no DESIGN §3 artifact"
		}
		return ""
	case "experiment":
		if !v.experiments[arg] {
			return "names no experiment id"
		}
		return ""
	case "roadmap":
		if !v.roadmap[arg] {
			return "names no open ROADMAP item"
		}
		return ""
	case "ci":
		text, ok := v.ci[arg]
		if !ok {
			return "names no CI job"
		}
		cmd, flag, _ := strings.Cut(key, " ")
		if !strings.Contains(text, "cmd/"+cmd) && !strings.Contains(text, "./"+cmd) {
			return "names a job that does not run " + cmd
		}
		if flag != "" && !regexp.MustCompile(`(^|[\s'"])`+regexp.QuoteMeta(flag)+`($|[\s'"=])`).MatchString(text) {
			return "names a job that does not pass " + flag
		}
		return ""
	}
	return "is not in the vocabulary"
}

// censusLoadVocab reads the vocabulary from the module's own documents
// and from the experiment registry `cmd/experiments -list` prints.
func censusLoadVocab() (censusVocab, error) {
	v := censusVocab{paper: map[string]bool{}, experiments: map[string]bool{}, ci: map[string]string{}, roadmap: map[string]bool{}}
	for _, id := range experiments.IDs() {
		v.experiments[id] = true
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		return v, err
	}
	_, index, _ := strings.Cut(string(design), "\n## 3. ")
	index, _, _ = strings.Cut(index, "\n## 4. ")
	for _, m := range regexp.MustCompile(`(?m)^\| ([A-Z][0-9]+[a-z]?) \|`).FindAllStringSubmatch(index, -1) {
		v.paper[m[1]] = true
	}
	roadmap, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		return v, err
	}
	for _, m := range regexp.MustCompile(`(?m)^- \*\*([0-9]+)\. `).FindAllStringSubmatch(string(roadmap), -1) {
		v.roadmap[m[1]] = true
	}
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		return v, err
	}
	_, jobs, _ := strings.Cut(string(ci), "\njobs:\n")
	job := regexp.MustCompile(`(?m)^  ([A-Za-z0-9_-]+):\s*$`)
	heads := job.FindAllStringSubmatchIndex(jobs, -1)
	for i, h := range heads {
		end := len(jobs)
		if i+1 < len(heads) {
			end = heads[i+1][0]
		}
		v.ci[jobs[h[2]:h[3]]] = jobs[h[1]:end]
	}
	if len(v.paper) == 0 || len(v.roadmap) == 0 || len(v.ci) == 0 {
		return v, fmt.Errorf("vocabulary: %d DESIGN §3 ids, %d ROADMAP items, %d CI jobs found", len(v.paper), len(v.roadmap), len(v.ci))
	}
	return v, nil
}

func TestCensus(t *testing.T) {
	fset := token.NewFileSet()
	paths, err := filepath.Glob(filepath.Join("cmd", "*", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	cmds := map[string][]*ast.File{}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		cmd := filepath.Base(filepath.Dir(path))
		cmds[cmd] = append(cmds[cmd], f)
	}
	found, err := censusFlags(fset, cmds)
	if err != nil {
		t.Fatal(err)
	}
	v, err := censusLoadVocab()
	if err != nil {
		t.Fatal(err)
	}
	perCmd, byKind := map[string]int{}, map[string]int{}
	for key := range found {
		cmd, _, _ := strings.Cut(key, " ")
		perCmd[cmd]++
	}
	for _, reason := range census {
		kind, _, _ := strings.Cut(reason, " ")
		byKind[kind]++
	}
	// A program is its directory, Go files or not, so an empty one is
	// found too; it and the flags are checked as one census.
	dirs, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if d.IsDir() {
			found[d.Name()] = token.Position{Filename: filepath.Join("cmd", d.Name())}
		}
	}
	all := maps.Clone(census)
	maps.Copy(all, censusPrograms)
	for _, msg := range censusCheck(found, all, v) {
		t.Error(msg)
	}
	t.Logf("census: %d program entries; %d flag entries over %d programs %v; by reason %v; %d roadmap (cap %d)",
		len(censusPrograms), len(census), len(perCmd), perCmd, byKind, byKind["roadmap"], censusMaxRoadmap)
}

// TestCensusRules feeds the census in-memory commands and vocabularies
// and checks that each kind of violation is found, and only it.
func TestCensusRules(t *testing.T) {
	const src = `package main
import "flag"
func main() {
	fs := flag.NewFlagSet("x", flag.ExitOnError)
	_ = fs.Int("n", 1, "count")
	_ = flag.String("algo", "a", "a | b")
	var out string
	flag.StringVar(&out, "out", "", "report path")
	_ = other.String("not-a-flag", "", "")
}`
	vocab := censusVocab{
		paper:       map[string]bool{"F5": true},
		experiments: map[string]bool{"roi": true},
		ci:          map[string]string{"smoke": "\n    steps:\n      - run: ./x -n 3 -algo a\n"},
		roadmap:     map[string]bool{"3": true},
	}
	base := map[string]string{
		"x -n":      "ci smoke",
		"x -algo":   "paper F5",
		"x -algo a": "experiment roi",
		"x -algo b": "served",
		"x -out":    "operator",
		"x":         "operator", // the program itself
	}
	with := func(key, reason string) map[string]string {
		m := map[string]string{}
		for k, r := range base {
			m[k] = r
		}
		if reason == "" {
			delete(m, key)
		} else {
			m[key] = reason
		}
		return m
	}
	allRoadmap := map[string]string{}
	for k := range base {
		allRoadmap[k] = "roadmap 3"
	}
	cases := []struct {
		name   string
		census map[string]string
		want   string // substring of the one violation; "" for none
	}{
		{"every flag and value listed", base, ""},
		{"unlisted flag", with("x -out", ""), "x -out names no user"},
		{"unlisted -algo value", with("x -algo b", ""), "x -algo b names no user"},
		{"stale entry", with("x -gone", "operator"), "x -gone is stale"},
		{"reason outside the vocabulary", with("x -out", "handy"), "not in the vocabulary"},
		{"unknown paper artifact", with("x -out", "paper F99"), "names no DESIGN §3 artifact"},
		{"unknown experiment", with("x -out", "experiment nosuch"), "names no experiment id"},
		{"closed roadmap item", with("x -out", "roadmap 99"), "names no open ROADMAP item"},
		{"unknown CI job", with("x -out", "ci nosuch"), "names no CI job"},
		{"CI job that does not pass the flag", with("x -out", "ci smoke"), "does not pass -out"},
		{"CI job that does not pass the value", with("x -algo b", "ci smoke"), "does not pass -algo b"},
		{"roadmap entries over the cap", allRoadmap, "6 roadmap entries, cap is 4"},
		{"unlisted program", with("x", ""), "cmd/x: x names no user"},
		{"stale program", with("y", "served"), "census entry y is stale"},
		{"program a CI job runs", with("x", "ci smoke"), ""},
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "main.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	found, err := censusFlags(fset, map[string][]*ast.File{"x": {f}})
	if err != nil {
		t.Fatal(err)
	}
	found["x"] = token.Position{Filename: "cmd/x"}
	if len(found) != len(base) {
		t.Fatalf("found %d flags and values, and the program, want the %d of base: %v", len(found), len(base), found)
	}
	for _, c := range cases {
		bad := censusCheck(found, c.census, vocab)
		switch {
		case c.want == "" && len(bad) != 0:
			t.Errorf("%s: violations %q, want none", c.name, bad)
		case c.want != "" && (len(bad) != 1 || !strings.Contains(bad[0], c.want)):
			t.Errorf("%s: violations %q, want one containing %q", c.name, bad, c.want)
		}
	}

	for name, src := range map[string]string{
		"flag name not a literal": `package main; import "flag"; var n = "n"; var _ = flag.Int(n, 1, "")`,
		"-algo usage not a list":  `package main; import "flag"; var _ = flag.String("algo", "a", "the algorithm to run")`,
	} {
		f, err := parser.ParseFile(fset, "bad.go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := censusFlags(fset, map[string][]*ast.File{"x": {f}}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

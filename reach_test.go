package bench

// The reachability gate (DESIGN "What counts as reached" and "What counts
// as set"): every package-level func, var, const and type, and every
// method, declared in a non-test file of this module must be used by some
// non-test file of the module; and every exported struct field such a
// file declares that a non-test file reads must also be set by one. The
// only escape is a written reason in reachAllow below.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// reachAllow is the only escape from the gate: qualified name → reason.
// A name is "<package path below the module>.<Ident>",
// "….<Receiver>.<Method>" or "….<Type>.<Field>"; a bare package path
// covers every finding in that package. The reason is one of
//
//	reference        the oracle a faster sibling is compared against
//	invariant        a checker tests call on product output
//	fault-injection  a fault a test plants under product code
//	paper §N         a formula or construction of the paper's section N
//	observer         a read-only accessor a test of other behaviour asserts on
//	roadmap N        named by open ROADMAP item N
//
// and every listed identifier must still exist, still be unreached (a
// field: unset by programs), and be used (set) by at least one test:
// what nothing uses is deleted, not listed.
var reachAllow = map[string]string{
	// The serial build, the serial decoder and the dense linear-system
	// PageRank are what their parallel or iterative siblings are tested
	// equal to (ROADMAP item 2 deletes each once internal/oracle exists).
	"internal/source.BuildSerial":             "reference",
	"internal/webgraph.Compressed.Decompress": "reference",
	"internal/rank.PageRankLinear":            "reference",
	// The in-RAM slab writer is what webgraph's streamed slab build is
	// compared to byte for byte.
	"internal/linalg.WriteSlabCSR": "reference",

	// Checkers the suites run over what the product built.
	"internal/graph.Graph.Validate":          "invariant",
	"internal/source.Graph.Validate":         "invariant",
	"internal/linalg.Matrix.IsRowStochastic": "invariant",
	"internal/linalg.L2Distance":             "invariant", // the paper's distance between two solved vectors
	"internal/rankeval.TopKOverlap":          "invariant", // stream-equals-cold asserts the top-k set

	// Faults planted under product code: a durable.FS that tears writes,
	// drops syncs and crashes, and a transport that resets, truncates and
	// corrupts replica transfers.
	"internal/faultfs":                         "fault-injection",
	"internal/replica.NewFlakyTransport":       "fault-injection",
	"internal/replica.FlakyTransport.SetProbs": "fault-injection",
	"internal/replica.FlakyTransport.Counts":   "fault-injection",

	// §4's closed forms that only the simulation cross-checks evaluate
	// (the experiments call their siblings), and the §2 attack
	// constructions beside the two the experiments inject: ROADMAP item
	// 10's scoreboard is defined over every injector.
	"internal/analysis.SingleSourceScore":        "paper §4",
	"internal/analysis.CollusionContribution":    "paper §4",
	"internal/analysis.TargetScoreWithColluders": "paper §4",
	"internal/analysis.PageRankTargetScore":      "paper §4",
	"internal/spam.InjectCollusionNetwork":       "paper §4",
	"internal/spam.Hijack":                       "paper §2",
	"internal/spam.Honeypot":                     "paper §2",
	"internal/spam.LinkFarm":                     "paper §2",
	"internal/spam.LinkExchange":                 "paper §2",

	// Counters and handles the product keeps (and mostly exports through
	// /metrics or /healthz as text) that tests of syncing, shedding,
	// carrying and refreshing read as numbers.
	"internal/linalg.TransposeMaterializations":   "observer",
	"internal/replica.Puller.Version":             "observer",
	"internal/replica.Puller.ConsecutiveFailures": "observer",
	"internal/replica.Puller.NotModified":         "observer",
	"internal/replica.Puller.SetsShared":          "observer",
	"internal/server.Metrics.Requests":            "observer",
	"internal/server.Metrics.Shed":                "observer",
	"internal/server.Metrics.Quantile":            "observer",
	"internal/server.Server.Store":                "observer",
	"internal/server.Server.Metrics":              "observer",
	"internal/server.Store.PublishSets":           "observer",
	"internal/stream.Pipeline.LastSeq":            "observer",
	"internal/stream.Pipeline.Stats":              "observer",
	"internal/stream.Pipeline.Kappa":              "observer",

	// Two of the five delta constructors: the benchmark's churn only
	// rewires and touches, the ingest door of item 1a is what adds
	// sources and pages to a running pipeline.
	"internal/stream.AddSource": "roadmap 1",
	"internal/stream.AddPage":   "roadmap 1",

	// Fields the field rule finds read and set by tests only. The two FS
	// fields are where crash tests hand the WAL and spill runs a faulty
	// disk; item 1a's ingest door sets srserve's WAL directory and top-k.
	"internal/stream.Options.FS":     "fault-injection",
	"internal/gen.StreamOptions.FS":  "fault-injection",
	"internal/stream.Options.TopK":   "roadmap 1",
	"internal/stream.Options.WALDir": "roadmap 1",
}

const (
	reachMaxAllow   = 45
	reachMaxRoadmap = 6
)

// reachPkg is one package as the rule engine sees it: parsed files, split
// by who may keep a declaration alive.
type reachPkg struct {
	path   string      // import path
	files  []*ast.File // non-test files: declarations and product uses
	tests  []*ast.File // in-package _test.go files: test uses only
	xtests []*ast.File // external (package x_test) files: test uses only
	frozen bool        // declarations out of scope (benchmark/); uses count
}

// reachFinding is a declaration no non-test file uses, or (field) an
// exported field non-test files read and none sets.
type reachFinding struct {
	name     string // qualified as in reachAllow
	pkg      string // package path below the module
	pos      token.Position
	testUsed bool   // some _test.go file uses it (a field: sets it)
	field    bool   // found by the field rule
	via      string // field rule: the unset fields its only product sets forward
}

// reachReport is what the rule engine returns.
type reachReport struct {
	findings []reachFinding
	// ownPkgOnly lists exported names whose every product use is inside
	// the declaring package: unexportable, not dead. Informational.
	ownPkgOnly []string
	// fields and fieldsRead count the exported fields in scope of the
	// field rule and those of them non-test files read. Informational.
	fields, fieldsRead int
	// setUnread lists the exported fields in scope that non-test files
	// set and none reads — the field rule's converse — except those with
	// a struct tag, which encoding/json reads by reflection; taggedUnread
	// counts those. Informational.
	setUnread    []string
	taggedUnread int
}

// reachAnalyze type-checks pkgs in dependency order (imports outside pkgs
// go to std) and applies the rule. module is the import-path prefix
// stripped from reported names.
func reachAnalyze(fset *token.FileSet, module string, pkgs []*reachPkg, std types.Importer) (*reachReport, error) {
	byPath := make(map[string]*reachPkg, len(pkgs))
	for _, p := range pkgs {
		byPath[p.path] = p
	}
	order, err := reachTopo(pkgs, byPath)
	if err != nil {
		return nil, err
	}

	checked := make(map[string]*types.Package, len(pkgs))
	imp := reachImporter{module: checked, std: std}
	infos := make(map[*reachPkg]*types.Info, len(pkgs))
	for _, p := range order {
		if len(p.files) == 0 {
			continue
		}
		info := reachInfo()
		tp, err := (&types.Config{Importer: imp}).Check(p.path, fset, p.files, info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %w", p.path, err)
		}
		checked[p.path] = tp
		infos[p] = info
	}

	// Declarations in scope, keyed by position: the test variants below
	// re-check the same files into fresh objects, positions stay put.
	type decl struct {
		obj  types.Object
		name string
		pkg  string
	}
	decls := map[token.Pos]*decl{}
	ifaces := reachInterfaces(checked)
	for _, p := range order {
		info := infos[p]
		if info == nil || p.frozen {
			continue
		}
		rel := strings.TrimPrefix(strings.TrimPrefix(p.path, module), "/")
		for _, f := range p.files {
			for _, id := range reachDeclared(f) {
				obj := info.Defs[id]
				if obj == nil || id.Name == "_" {
					continue
				}
				name := rel + "." + id.Name
				if fn, ok := obj.(*types.Func); ok {
					recv := fn.Type().(*types.Signature).Recv()
					if recv == nil && (id.Name == "main" || id.Name == "init") {
						continue
					}
					if recv != nil {
						named := reachNamed(recv.Type())
						if named == nil || reachIfaceNeeds(named, id.Name, ifaces) {
							continue
						}
						name = rel + "." + named.Obj().Name() + "." + id.Name
					}
				}
				decls[obj.Pos()] = &decl{obj: obj, name: name, pkg: rel}
			}
		}
	}

	prodUsed := map[token.Pos]bool{}    // used by any non-test file
	outsideUsed := map[token.Pos]bool{} // … of another package
	for _, p := range order {
		if info := infos[p]; info != nil {
			reachUses(p.files, info, func(pos token.Pos, pkg string) {
				prodUsed[pos] = true
				if pkg != p.path {
					outsideUsed[pos] = true
				}
			})
		}
	}

	// Test uses. The variants are checked leniently: an external test
	// package sees its subject through the non-test importer, so a name
	// from export_test.go does not resolve; every identifier that does
	// resolve is still recorded, which is all this pass reads.
	testUsed := map[token.Pos]bool{}
	testSet := map[token.Pos]bool{} // fields some _test.go file sets
	lenient := func(path string, files []*ast.File) *types.Info {
		info := reachInfo()
		cfg := &types.Config{Importer: imp, Error: func(error) {}}
		cfg.Check(path, fset, files, info)
		return info
	}
	mark := func(pos token.Pos, _ string) { testUsed[pos] = true }
	markSet := func(f, _ *types.Var) { testSet[f.Pos()] = true }
	for _, p := range order {
		if len(p.tests) > 0 {
			all := append(append([]*ast.File{}, p.files...), p.tests...)
			info := lenient(p.path, all)
			reachUses(p.tests, info, mark)
			reachFieldUses(p.tests, info, markSet, nil)
		}
		if len(p.xtests) > 0 {
			info := lenient(p.path+"_test", p.xtests)
			reachUses(p.xtests, info, mark)
			reachFieldUses(p.xtests, info, markSet, nil)
		}
	}

	rep := &reachReport{}
	reachFields(rep, fset, module, order, infos, testSet)
	for pos, d := range decls {
		switch {
		case !prodUsed[pos]:
			rep.findings = append(rep.findings, reachFinding{
				name: d.name, pkg: d.pkg, pos: fset.Position(pos), testUsed: testUsed[pos],
			})
		case d.obj.Exported() && !outsideUsed[pos] && !strings.HasPrefix(d.pkg, "cmd/") && !strings.HasPrefix(d.pkg, "examples/"):
			rep.ownPkgOnly = append(rep.ownPkgOnly, d.name)
		}
	}
	sort.Slice(rep.findings, func(i, j int) bool { return rep.findings[i].name < rep.findings[j].name })
	sort.Strings(rep.ownPkgOnly)
	sort.Strings(rep.setUnread)
	return rep, nil
}

func reachInfo() *types.Info {
	return &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// reachFields applies the field rule: an exported field of a struct
// declared in a non-test file of a package in scope, if a non-test file
// reads it, must be set by a non-test file. A set that only forwards
// another module field (Tol: opt.Tol) counts once that field is set,
// iterated to a fixed point, so an unset head names its whole chain.
func reachFields(rep *reachReport, fset *token.FileSet, module string, order []*reachPkg, infos map[*reachPkg]*types.Info, testSet map[token.Pos]bool) {
	type decl struct {
		name, pkg string
		tagged    bool
	}
	decls := map[token.Pos]decl{}
	for _, p := range order {
		if info := infos[p]; info != nil && !p.frozen {
			rel := strings.TrimPrefix(strings.TrimPrefix(p.path, module), "/")
			for _, f := range p.files {
				reachFieldDecls(f, func(id *ast.Ident, name string, tagged bool) {
					if obj := info.Defs[id]; obj != nil && id.IsExported() {
						decls[obj.Pos()] = decl{rel + "." + name, rel, tagged}
					}
				})
			}
		}
	}

	inModule := func(v *types.Var) bool {
		return v.Pkg() != nil && (v.Pkg().Path() == module || strings.HasPrefix(v.Pkg().Path(), module+"/"))
	}
	read := map[token.Pos]bool{}
	set := map[token.Pos]bool{}
	from := map[token.Pos][]token.Pos{} // field → the fields its forwarding sets read
	for _, p := range order {
		if info := infos[p]; info != nil {
			reachFieldUses(p.files, info, func(f, src *types.Var) {
				if src == nil || !inModule(src) {
					set[f.Pos()] = true
				} else {
					from[f.Pos()] = append(from[f.Pos()], src.Pos())
				}
			}, func(f *types.Var) { read[f.Pos()] = true })
		}
	}
	for changed := true; changed; {
		changed = false
		for f, srcs := range from {
			if set[f] {
				continue
			}
			for _, s := range srcs {
				if set[s] {
					set[f], changed = true, true
					break
				}
			}
		}
	}

	rep.fields = len(decls)
	for pos, d := range decls {
		if !read[pos] {
			switch {
			case set[pos] && d.tagged:
				rep.taggedUnread++
			case set[pos]:
				rep.setUnread = append(rep.setUnread, d.name)
			}
			continue
		}
		rep.fieldsRead++
		if set[pos] {
			continue
		}
		var via []string
		for _, s := range from[pos] {
			if name := decls[s].name; name != "" && !slices.Contains(via, name) {
				via = append(via, name)
			}
		}
		sort.Strings(via)
		rep.findings = append(rep.findings, reachFinding{
			name: d.name, pkg: d.pkg, pos: fset.Position(pos), testUsed: testSet[pos],
			field: true, via: strings.Join(via, ", "),
		})
	}
}

// reachFieldDecls calls decl for every field f declares in a named struct
// type (at any depth, so function-local types too), naming it
// "<Type>.<Field>", or "<Type>.<Field>.<Inner>" inside an anonymous
// struct-typed field, and saying whether the field carries a struct tag.
func reachFieldDecls(f *ast.File, decl func(id *ast.Ident, name string, tagged bool)) {
	var fields func(st *ast.StructType, prefix string)
	fields = func(st *ast.StructType, prefix string) {
		for _, fl := range st.Fields.List {
			names := fl.Names
			if len(names) == 0 { // embedded: the field is named by its type
				t := fl.Type
				if s, ok := t.(*ast.StarExpr); ok {
					t = s.X
				}
				switch x := t.(type) {
				case *ast.Ident:
					names = []*ast.Ident{x}
				case *ast.SelectorExpr:
					names = []*ast.Ident{x.Sel}
				}
			}
			for _, id := range names {
				decl(id, prefix+id.Name, fl.Tag != nil)
				if inner, ok := fl.Type.(*ast.StructType); ok {
					fields(inner, prefix+id.Name+".")
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok {
			if st, ok := ts.Type.(*ast.StructType); ok {
				fields(st, ts.Name.Name+".")
			}
		}
		return true
	})
}

// reachFieldUses reports every set and, when read is non-nil, every read
// of a struct field in files. A set is a keyed or positional composite
// literal element; an assignment, ++/-- or & whose target is the field or
// a selector/index path through it; or a call receiving the address of a
// whole struct, which sets all its fields, nested ones included. src is
// the field a set's value is, when the value is just a field; a field a
// selection passes through implicitly (an embedded one) is set or read
// with it.
func reachFieldUses(files []*ast.File, info *types.Info, setField func(f, src *types.Var), read func(f *types.Var)) {
	set := func(f, src *types.Var) {
		if f != nil { // nil only where a lenient check left a name unresolved
			setField(f, src)
		}
	}
	fieldOf := func(o types.Object) *types.Var {
		if v, ok := o.(*types.Var); ok && v.IsField() {
			return v.Origin()
		}
		return nil
	}
	embedded := func(sel *types.Selection, each func(*types.Var)) {
		t, idx := sel.Recv(), sel.Index()
		for _, i := range idx[:len(idx)-1] {
			st := reachStruct(t)
			if st == nil {
				return
			}
			f := st.Field(i)
			each(f.Origin())
			t = f.Type()
		}
	}
	valueField := func(e ast.Expr) *types.Var {
		if se, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if sel := info.Selections[se]; sel != nil && sel.Kind() == types.FieldVal {
				return fieldOf(sel.Obj())
			}
		}
		return nil
	}
	setAt := map[*ast.Ident]bool{}
	target := func(e ast.Expr, src *types.Var) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				sel := info.Selections[x]
				if sel == nil || sel.Kind() != types.FieldVal {
					return
				}
				setAt[x.Sel] = true
				set(fieldOf(sel.Obj()), src)
				embedded(sel, func(f *types.Var) { set(f, nil) })
				e, src = x.X, nil
			case *ast.IndexExpr:
				e, src = x.X, nil
			case *ast.StarExpr:
				e, src = x.X, nil
			default:
				return
			}
		}
	}
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					var src *types.Var
					if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
						src = valueField(n.Rhs[i])
					}
					target(lhs, src)
				}
			case *ast.IncDecStmt:
				target(n.X, nil)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					target(n.X, nil)
				}
			case *ast.CallExpr:
				for _, arg := range n.Args {
					if u, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && u.Op == token.AND && reachStruct(info.TypeOf(u.X)) != nil {
						reachEveryField(info.TypeOf(u.X), map[types.Type]bool{}, func(f *types.Var) { set(f, nil) })
					}
				}
			case *ast.CompositeLit:
				st := reachStruct(info.TypeOf(n))
				if st == nil {
					return true
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							setAt[id] = true
							set(fieldOf(info.Uses[id]), valueField(kv.Value))
						}
					} else if i < st.NumFields() {
						set(st.Field(i).Origin(), valueField(elt))
					}
				}
			case *ast.SelectorExpr:
				if sel := info.Selections[n]; read != nil && sel != nil && !setAt[n.Sel] {
					embedded(sel, read)
				}
			case *ast.Ident:
				if f := fieldOf(info.Uses[n]); read != nil && f != nil && !setAt[n] {
					read(f)
				}
			}
			return true
		})
	}
}

// reachStruct returns the struct type behind t, T or *T, or nil.
func reachStruct(t types.Type) *types.Struct {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

// reachEveryField calls each for every field reachable from t through
// struct, pointer, slice, array and map types: what a decoder handed &v
// may set.
func reachEveryField(t types.Type, seen map[types.Type]bool, each func(*types.Var)) {
	if seen[t] {
		return
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			each(u.Field(i).Origin())
			reachEveryField(u.Field(i).Type(), seen, each)
		}
	case *types.Pointer:
		reachEveryField(u.Elem(), seen, each)
	case *types.Slice:
		reachEveryField(u.Elem(), seen, each)
	case *types.Array:
		reachEveryField(u.Elem(), seen, each)
	case *types.Map:
		reachEveryField(u.Key(), seen, each)
		reachEveryField(u.Elem(), seen, each)
	}
}

// reachImporter resolves module packages to the ones already checked from
// source, so a use in one package and the declaration in another are the
// same object, and everything else through std.
type reachImporter struct {
	module map[string]*types.Package
	std    types.Importer
}

func (m reachImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.module[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}

// reachTopo orders pkgs so that each comes after the module packages its
// non-test files import.
func reachTopo(pkgs []*reachPkg, byPath map[string]*reachPkg) ([]*reachPkg, error) {
	var order []*reachPkg
	state := map[*reachPkg]int{} // 1 visiting, 2 done
	var visit func(p *reachPkg) error
	visit = func(p *reachPkg) error {
		switch state[p] {
		case 1:
			return fmt.Errorf("import cycle through %s", p.path)
		case 2:
			return nil
		}
		state[p] = 1
		for _, f := range p.files {
			for _, spec := range f.Imports {
				if dep := byPath[strings.Trim(spec.Path.Value, `"`)]; dep != nil {
					if err := visit(dep); err != nil {
						return err
					}
				}
			}
		}
		state[p] = 2
		order = append(order, p)
		return nil
	}
	for _, p := range pkgs {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// reachDeclared returns the identifiers f declares at package level,
// methods included.
func reachDeclared(f *ast.File) []*ast.Ident {
	var ids []*ast.Ident
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			ids = append(ids, d.Name)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					ids = append(ids, s.Names...)
				case *ast.TypeSpec:
					ids = append(ids, s.Name)
				}
			}
		}
	}
	return ids
}

// reachUses reports, for each identifier in files that resolves to a
// declared object, the position of that object's declaration (the
// generic one, for a method or field of an instantiation) and its
// package path. A use inside the object's own declaration does not
// count, nor does naming a type as the receiver of its own method.
func reachUses(files []*ast.File, info *types.Info, use func(pos token.Pos, pkg string)) {
	walk := func(n ast.Node, own map[string]token.Pos) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if pos, mine := own[id.Name]; mine && pos == obj.Pos() {
				return true
			}
			use(obj.Pos(), obj.Pkg().Path())
			return true
		})
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				own := map[string]token.Pos{d.Name.Name: d.Name.Pos()}
				walk(d.Type, own)
				if d.Body != nil {
					walk(d.Body, own)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					own := map[string]token.Pos{}
					switch s := s.(type) {
					case *ast.ValueSpec:
						for _, id := range s.Names {
							own[id.Name] = id.Pos()
						}
					case *ast.TypeSpec:
						own[s.Name.Name] = s.Name.Pos()
					}
					walk(s, own)
				}
			}
		}
	}
}

// reachNamed returns the named type behind a receiver type T or *T.
func reachNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// reachInterfaces indexes, by method name, every named non-generic
// method-set interface declared by the checked packages or anything they
// import.
func reachInterfaces(checked map[string]*types.Package) map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			iface, ok := named.Underlying().(*types.Interface)
			if !ok || !iface.IsMethodSet() {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i).Name()
				out[m] = append(out[m], iface)
			}
		}
		for _, dep := range p.Imports() {
			visit(dep)
		}
	}
	for _, p := range checked {
		visit(p)
	}
	out["Error"] = append(out["Error"], reachError)
	return out
}

// reachError is the error interface: it lives in the universe scope,
// which no package imports.
var reachError = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// reachIfaceNeeds reports whether named (as T or *T) needs method to
// implement one of the indexed interfaces, or whether method is one of
// the three that package errors looks up by name on an error type.
func reachIfaceNeeds(named *types.Named, method string, ifaces map[string][]*types.Interface) bool {
	ptr := types.NewPointer(named)
	impl := func(i *types.Interface) bool { return types.Implements(named, i) || types.Implements(ptr, i) }
	for _, i := range ifaces[method] {
		if impl(i) {
			return true
		}
	}
	return (method == "Is" || method == "As" || method == "Unwrap") && impl(reachError)
}

// reachCheckAllow matches findings against allow and returns one message
// per violation: an unlisted finding, a listed identifier no test uses, a
// stale entry, a reason outside the vocabulary, a list over its caps.
func reachCheckAllow(findings []reachFinding, allow map[string]string) []string {
	var bad []string
	for name, reason := range allow {
		if !reachReasonOK(reason) {
			bad = append(bad, fmt.Sprintf("allow-list entry %s: reason %q is not in the vocabulary", name, reason))
		}
	}
	if len(allow) > reachMaxAllow {
		bad = append(bad, fmt.Sprintf("allow-list holds %d entries, cap is %d", len(allow), reachMaxAllow))
	}
	if roadmap := reachRoadmapEntries(allow); roadmap > reachMaxRoadmap {
		bad = append(bad, fmt.Sprintf("allow-list holds %d roadmap entries, cap is %d", roadmap, reachMaxRoadmap))
	}
	hit := map[string]bool{}
	for _, f := range findings {
		key := f.name
		if _, ok := allow[key]; !ok {
			key = f.pkg
		}
		if _, ok := allow[key]; !ok {
			bad = append(bad, fmt.Sprintf("%s: %s is %s", f.pos, f.name, reachKind(f)))
			continue
		}
		hit[key] = true
		if !f.testUsed {
			verb := "uses"
			if f.field {
				verb = "sets"
			}
			bad = append(bad, fmt.Sprintf("%s: %s is allow-listed (%s) but no test %s it either: delete it", f.pos, f.name, allow[key], verb))
		}
	}
	for name := range allow {
		if !hit[name] {
			bad = append(bad, fmt.Sprintf("allow-list entry %s is stale: the identifier is gone or is reached now", name))
		}
	}
	sort.Strings(bad)
	return bad
}

// reachKind says why f is a finding.
func reachKind(f reachFinding) string {
	switch {
	case f.field && f.via != "":
		return "read but set only by forwarding " + f.via
	case f.field && f.testUsed:
		return "read but set only by tests"
	case f.field:
		return "read but set by nothing, tests included"
	case f.testUsed:
		return "used only by tests"
	}
	return "used by nothing, tests included"
}

func reachRoadmapEntries(allow map[string]string) (n int) {
	for _, reason := range allow {
		if strings.HasPrefix(reason, "roadmap ") {
			n++
		}
	}
	return n
}

func reachReasonOK(reason string) bool {
	switch reason {
	case "reference", "invariant", "fault-injection", "observer":
		return true
	}
	for _, prefix := range []string{"paper §", "roadmap "} {
		if n, ok := strings.CutPrefix(reason, prefix); ok && n != "" && strings.Trim(n, "0123456789") == "" {
			return true
		}
	}
	return false
}

// reachLoad parses every package `go list` reports for the module rooted
// at the working directory, with the file sets the build would use.
func reachLoad(fset *token.FileSet) (module string, pkgs []*reachPkg, err error) {
	out, err := exec.Command("go", "list", "-json=ImportPath,Dir,Module,GoFiles,TestGoFiles,XTestGoFiles", "./...").Output()
	if err != nil {
		return "", nil, fmt.Errorf("go list: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp struct {
			ImportPath, Dir                    string
			Module                             struct{ Path string }
			GoFiles, TestGoFiles, XTestGoFiles []string
		}
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return "", nil, fmt.Errorf("go list: %w", err)
		}
		module = lp.Module.Path
		p := &reachPkg{path: lp.ImportPath, frozen: lp.ImportPath == module+"/benchmark"}
		for _, set := range []struct {
			names []string
			dst   *[]*ast.File
		}{{lp.GoFiles, &p.files}, {lp.TestGoFiles, &p.tests}, {lp.XTestGoFiles, &p.xtests}} {
			for _, name := range set.names {
				f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return "", nil, err
				}
				*set.dst = append(*set.dst, f)
			}
		}
		pkgs = append(pkgs, p)
	}
	return module, pkgs, nil
}

// reachStd is the importer for packages outside the module: the export
// data of every standard package the module's files and tests import, as
// `go list -export` reports it under the default build settings — the
// objects `go test` has already compiled, so nothing is type-checked from
// source.
func reachStd(fset *token.FileSet) (types.Importer, error) {
	list := func(args ...string) ([]string, error) {
		out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
		if err != nil {
			return nil, fmt.Errorf("go list: %w", err)
		}
		return strings.Fields(string(out)), nil
	}
	std, err := list("-deps", "-test", "-f", "{{if .Standard}}{{.ImportPath}}{{end}}", "./...")
	if err != nil {
		return nil, err
	}
	lines, err := list(append([]string{"-export", "-f", "{{.ImportPath}}={{.Export}}"}, std...)...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(lines))
	for _, line := range lines {
		if path, file, ok := strings.Cut(line, "="); ok && file != "" {
			exports[path] = file
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}), nil
}

func TestReach(t *testing.T) {
	fset := token.NewFileSet()
	module, pkgs, err := reachLoad(fset)
	if err != nil {
		t.Fatal(err)
	}
	std, err := reachStd(fset)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := reachAnalyze(fset, module, pkgs, std)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range reachCheckAllow(rep.findings, reachAllow) {
		t.Error(msg)
	}
	var fields, viaTests, viaNothing, viaFwd int
	for _, f := range rep.findings {
		switch {
		case !f.field:
		case f.via != "":
			viaFwd++
		case f.testUsed:
			viaTests++
		default:
			viaNothing++
		}
	}
	fields = viaTests + viaNothing + viaFwd
	t.Logf("allow-list: %d entries (cap %d), %d of them roadmap (cap %d), covering %d declarations and %d fields",
		len(reachAllow), reachMaxAllow, reachRoadmapEntries(reachAllow), reachMaxRoadmap, len(rep.findings)-fields, fields)
	t.Logf("field rule: %d exported fields in scope, %d read by non-test code; read and set by no program: %d (by nothing %d, only by tests %d, only by forwarding %d)",
		rep.fields, rep.fieldsRead, fields, viaNothing, viaTests, viaFwd)
	for _, f := range rep.findings {
		if f.field {
			t.Logf("  %s: %s", f.name, reachKind(f))
		}
	}
	t.Logf("field rule's converse (informational): set by a program, read by none: %d untagged, %d more with a struct tag (read by encoding/json): %s",
		len(rep.setUnread), rep.taggedUnread, strings.Join(rep.setUnread, " "))
	t.Logf("exported but used only inside their own package (%d, informational): %s",
		len(rep.ownPkgOnly), strings.Join(rep.ownPkgOnly, " "))
}

// TestReachRules feeds the rule engine in-memory modules and checks its
// findings, with why each is one, exactly.
func TestReachRules(t *testing.T) {
	const mainUses = `package main
import "m/internal/a"
func main() { %s }`
	// A stand-in for encoding/json: the engine type-checks it from source
	// with the module (frozen, so it declares nothing in scope).
	const jsonStub = `package json; func Unmarshal(data []byte, v any) error { return nil }`
	cases := []struct {
		name         string
		lib, libTest string // m/internal/a: a.go and a_test.go
		mainBody     string // statements of m/cmd/x's main
		main         string // all of m/cmd/x's main.go, in place of mainBody
		want         []string
		unread       []string // the converse's untagged fields, when set
	}{
		{
			name:     "dead exported func",
			lib:      `package a; func Live() {}; func Dead() {}`,
			mainBody: `a.Live()`,
			want:     []string{"internal/a.Dead: used by nothing, tests included"},
		},
		{
			name:     "func used only by a test file",
			lib:      `package a; func Live() {}; func Helper() int { return 1 }`,
			libTest:  `package a; var _ = Helper()`,
			mainBody: `a.Live()`,
			want:     []string{"internal/a.Helper: used only by tests"},
		},
		{
			name: "method reached only through an interface",
			lib: `package a
type Shape interface{ Area() float64 }
type Sq struct{ S float64 }
func (s Sq) Area() float64 { return s.S * s.S }
func (s Sq) Perimeter() float64 { return 4 * s.S }
func Total(xs ...Shape) (t float64) { for _, x := range xs { t += x.Area() }; return t }`,
			mainBody: `a.Total(a.Sq{S: 2})`,
			want:     []string{"internal/a.Sq.Perimeter: used by nothing, tests included"},
		},
		{
			name: "method of a generic type used through an instantiation",
			lib: `package a
type Box[T any] struct{ v T }
func New[T any](v T) *Box[T] { return &Box[T]{v: v} }
func (b *Box[T]) Get() T { return b.v }
func (b *Box[T]) Unused() T { return b.unexported() }
func (b *Box[T]) unexported() T { return b.v }`,
			mainBody: `_ = a.New(3).Get()`,
			want:     []string{"internal/a.Box.Unused: used by nothing, tests included"},
		},
		{
			name: "field set only by a test file",
			lib: `package a
type Cfg struct{ N int; Tol float64 }
func Run(c Cfg) float64 { return float64(c.N) * c.Tol }`,
			libTest:  `package a; var _ = Run(Cfg{Tol: 1e-9})`,
			mainBody: `a.Run(a.Cfg{N: 3})`,
			want:     []string{"internal/a.Cfg.Tol: read but set only by tests"},
		},
		{
			name: "three-link forwarding chain from an unset head",
			lib: `package a
type Outer struct{ Tol float64 }
type Mid struct{ Tol float64 }
type Inner struct{ Tol float64 }
func Run(o Outer) float64 { return mid(Mid{Tol: o.Tol}) }
func mid(m Mid) float64 { var in Inner; in.Tol = m.Tol; return in.Tol }`,
			libTest:  `package a; var _ = Run(Outer{Tol: 1e-9})`,
			mainBody: `a.Run(a.Outer{})`,
			want: []string{
				"internal/a.Inner.Tol: read but set only by forwarding internal/a.Mid.Tol",
				"internal/a.Mid.Tol: read but set only by forwarding internal/a.Outer.Tol",
				"internal/a.Outer.Tol: read but set only by tests",
			},
		},
		{
			name: "three-link forwarding chain from a set head",
			lib: `package a
type Outer struct{ Tol float64 }
type Mid struct{ Tol float64 }
type Inner struct{ Tol float64 }
func Run(o Outer) float64 { return mid(Mid{Tol: o.Tol}) }
func mid(m Mid) float64 { var in Inner; in.Tol = m.Tol; return in.Tol }`,
			mainBody: `a.Run(a.Outer{Tol: 1e-9})`,
		},
		{
			name: "selector and index paths set the field they pass through",
			lib: `package a
type Stats struct{ Iterations int }
type Res struct{ Stats Stats; Counts [4]int; Unset int }
func Run(i int) int {
	var r Res
	r.Stats.Iterations = 3
	r.Counts[i&3]++
	return r.Stats.Iterations + r.Counts[0] + r.Unset
}`,
			mainBody: `a.Run(1)`,
			want:     []string{"internal/a.Res.Unset: read but set by nothing, tests included"},
		},
		{
			name: "positional literal",
			lib: `package a
type P struct{ X, Y int }
type Q struct{ Z int }
func Sum(p P, q Q) int { return p.X + p.Y + q.Z }`,
			mainBody: `a.Sum(a.P{1, 2}, a.Q{})`,
			want:     []string{"internal/a.Q.Z: read but set by nothing, tests included"},
		},
		{
			name: "a call handed the struct's address sets every field",
			lib: `package a
type Inner struct{ K int }
type Cfg struct{ N int; In Inner; P *Inner }
type Other struct{ M int }
func Use(c Cfg, o Other) int { return c.N + c.In.K + c.P.K + o.M }`,
			main: `package main
import ("encoding/json"; "m/internal/a")
func main() { var c a.Cfg; json.Unmarshal(nil, &c); a.Use(c, a.Other{}) }`,
			want: []string{"internal/a.Other.M: read but set by nothing, tests included"},
		},
		{
			name:     "converse: set by a program, read by none",
			lib:      "package a\ntype Res struct{ Score float64; Note string; Out int `json:\"out\"` }\nfunc Run() Res { return Res{Score: 1, Note: \"x\", Out: 2} }",
			mainBody: `_ = a.Run().Score`,
			unread:   []string{"internal/a.Res.Note"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fset := token.NewFileSet()
			parse := func(name, src string) *ast.File {
				f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
			lib := &reachPkg{path: "m/internal/a", files: []*ast.File{parse("a.go", c.lib)}}
			if c.libTest != "" {
				lib.tests = []*ast.File{parse("a_test.go", c.libTest)}
			}
			main := c.main
			if main == "" {
				main = fmt.Sprintf(mainUses, c.mainBody)
			}
			cmd := &reachPkg{path: "m/cmd/x", files: []*ast.File{parse("main.go", main)}}
			json := &reachPkg{path: "encoding/json", files: []*ast.File{parse("json.go", jsonStub)}, frozen: true}
			// cmd first: the engine, not the caller, orders by imports.
			rep, err := reachAnalyze(fset, "m", []*reachPkg{cmd, lib, json}, nil)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, f := range rep.findings {
				got = append(got, f.name+": "+reachKind(f))
			}
			if !slices.Equal(got, c.want) {
				t.Errorf("findings:\n\t%s\nwant:\n\t%s", strings.Join(got, "\n\t"), strings.Join(c.want, "\n\t"))
			}
			if c.unread != nil && (!slices.Equal(rep.setUnread, c.unread) || rep.taggedUnread != 1) {
				t.Errorf("set but unread: %v and %d tagged, want %v and 1", rep.setUnread, rep.taggedUnread, c.unread)
			}
		})
	}
}

// TestReachAllowList checks what the allow-list may and may not do.
func TestReachAllowList(t *testing.T) {
	onlyTests := reachFinding{name: "internal/a.Helper", pkg: "internal/a", testUsed: true}
	nothing := reachFinding{name: "internal/a.Dead", pkg: "internal/a"}
	cases := []struct {
		name     string
		findings []reachFinding
		allow    map[string]string
		want     string // substring of the one violation; "" for none
	}{
		{"listed with a reason", []reachFinding{onlyTests}, map[string]string{"internal/a.Helper": "observer"}, ""},
		{"package entry", []reachFinding{onlyTests}, map[string]string{"internal/a": "paper §4"}, ""},
		{"unlisted", []reachFinding{onlyTests}, nil, "internal/a.Helper is used only by tests"},
		{"stale entry", nil, map[string]string{"internal/a.Gone": "observer"}, "internal/a.Gone is stale"},
		{"stale field entry", nil, map[string]string{"internal/a.Cfg.Gone": "fault-injection"}, "internal/a.Cfg.Gone is stale"},
		{"listed but no test uses it", []reachFinding{nothing}, map[string]string{"internal/a.Dead": "roadmap 3"}, "delete it"},
		{"reason outside the vocabulary", []reachFinding{onlyTests}, map[string]string{"internal/a.Helper": "handy"}, "not in the vocabulary"},
	}
	for _, c := range cases {
		bad := reachCheckAllow(c.findings, c.allow)
		switch {
		case c.want == "" && len(bad) != 0:
			t.Errorf("%s: violations %q, want none", c.name, bad)
		case c.want != "" && (len(bad) != 1 || !strings.Contains(bad[0], c.want)):
			t.Errorf("%s: violations %q, want one containing %q", c.name, bad, c.want)
		}
	}
}

// Command unused reports exported declarations under internal/ that no
// program code needs. It type-checks every non-test Go file of the root
// module (root package, commands, examples, internal packages) and of the
// bench module, then flags:
//
//   - exported package-level functions, types, variables and constants,
//     and exported methods, declared under internal/ that no non-test file
//     references (a method that implements an interface is kept);
//   - exported struct fields declared under internal/ that no non-test
//     file sets, by a composite literal, an assignment, an increment or by
//     taking the field's address. A field with a json tag is exempt,
//     since decoding sets it.
//
// Tests may still use what it flags, but a declaration that only tests
// reach is code the programs never run. The allowlist below names the
// few kept on purpose. Run it from the repository root:
//
//	go run ./scripts/unused
//
// It prints one line per finding and exits 1 when there are any.
package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
)

// allowed names the declarations kept although no program code uses
// them, each with its reason. Keys are "pkg.Name", "pkg.Type.Method" or
// "pkg.Type.Field", with pkg the path under internal/. An entry that no
// longer matches a finding is itself reported, so the list cannot go
// stale.
var allowed = map[string]string{
	"fastsim.New":                    "fixture: tests build a channel from an explicit positive set",
	"fastsim.NoCapture":              "fixture: tests build channels whose collisions never capture",
	"idset.NewSparse":                "fixture: the forms tests drive the sparse form on its own",
	"binning.RandomPartition":        "oracle: the session's pooled partition must draw what it draws",
	"stats.Quantile":                 "oracle: Quantiles is checked against it",
	"idset.Hybrid.Equal":             "oracle: tests compare sets across forms with it",
	"serve.Config.Hold":              "test seam: holds admitted sessions until Open",
	"serve.Pool.Open":                "test seam: releases the sessions Hold parked",
	"serve.Field.Parked":             "test seam: tests fix the arrival order on a held field",
	"fastsim.Config.FalseActiveProb": "pinned: its span attribute is part of the golden trace bytes",
	// Accessors that tests read to check behaviour that stays.
	"faults.Injector.Events":     "accessor: the event log the Bernoulli oracle is checked against",
	"trace.Builder.PendingForks": "accessor: forks not yet grafted",
	"trace.Trace.NumSpans":       "accessor: span count of a built trace",
}

// modules maps each module's import path to its directory. The root
// module's walk skips bench, which is its own module.
var modules = []struct{ path, dir string }{
	{"tcast/bench", "bench"},
	{"tcast", "."},
}

func main() {
	findings, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "unused:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "unused: %d findings\n", len(findings))
		os.Exit(1)
	}
	fmt.Println("unused: every exported declaration under internal/ is needed")
}

// loader type-checks the two modules' packages from their non-test files
// and resolves standard-library imports from source.
type loader struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	files []*ast.File
	info  *types.Info
}

func (l *loader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := ""
	for _, m := range modules {
		if rel, ok := strings.CutPrefix(path, m.path); ok && (rel == "" || rel[0] == '/') {
			dir = filepath.Join(m.dir, rel)
			break
		}
	}
	if dir == "" {
		return l.std.Import(path)
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	p, err := (&types.Config{Importer: l}).Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	l.pkgs[path] = p
	l.files = append(l.files, files...)
	return p, nil
}

// load type-checks every directory of the two modules that holds non-test
// Go files.
func (l *loader) load() error {
	for _, m := range modules {
		err := filepath.WalkDir(m.dir, func(dir string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if dir != m.dir && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || dir == "bench") {
				return filepath.SkipDir
			}
			if _, err := build.ImportDir(dir, 0); err != nil {
				return nil // no buildable non-test files here
			}
			rel, _ := filepath.Rel(m.dir, dir)
			_, err = l.Import(path.Join(m.path, filepath.ToSlash(rel)))
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func run() ([]string, error) {
	l := &loader{
		fset: token.NewFileSet(),
		std:  importer.ForCompiler(token.NewFileSet(), "source", nil),
		pkgs: map[string]*types.Package{},
		info: &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}},
	}
	if err := l.load(); err != nil {
		return nil, err
	}
	used := map[types.Object]bool{}
	for _, obj := range l.info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		used[obj] = true
	}
	set := l.setFields()
	ifaces := l.interfaces()

	var findings []string
	matched := map[string]bool{}
	report := func(obj types.Object, key, what string) {
		if _, ok := allowed[key]; ok {
			matched[key] = true
			return
		}
		findings = append(findings, fmt.Sprintf("%s: %s %s", l.fset.Position(obj.Pos()), key, what))
	}
	for pkgPath, p := range l.pkgs {
		rel, ok := strings.CutPrefix(pkgPath, "tcast/internal/")
		if !ok {
			continue
		}
		for _, name := range p.Scope().Names() {
			obj := p.Scope().Lookup(name)
			if obj.Exported() && !used[obj] {
				report(obj, rel+"."+name, "is referenced by no program code")
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !implements(named, m.Name(), ifaces) {
					report(m, rel+"."+name+"."+m.Name(), "is called by no program code")
				}
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok || !obj.Exported() {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				_, tagged := reflect.StructTag(st.Tag(i)).Lookup("json")
				if f.Exported() && !f.Embedded() && !set[f] && !tagged {
					report(f, rel+"."+name+"."+f.Name(), "is set by no program code")
				}
			}
		}
	}
	for key := range allowed {
		if !matched[key] {
			findings = append(findings, "scripts/unused: allowlist entry "+key+" matches no finding")
		}
	}
	sort.Strings(findings)
	return findings, nil
}

// setFields returns the struct fields that some file writes: a key in a
// composite literal, every field of an unkeyed literal, the target of an
// assignment or increment, or an operand of &.
func (l *loader) setFields() map[*types.Var]bool {
	set := map[*types.Var]bool{}
	target := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
				continue
			case *ast.IndexExpr:
				e = x.X
				continue
			case *ast.SelectorExpr:
				if v, ok := l.info.Uses[x.Sel].(*types.Var); ok && v.IsField() {
					set[v.Origin()] = true
				}
			}
			return
		}
	}
	for _, f := range l.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				t := l.info.Types[n].Type.Underlying()
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem().Underlying()
				}
				st, ok := t.(*types.Struct)
				for i, elt := range n.Elts {
					if kv, isKV := elt.(*ast.KeyValueExpr); isKV {
						id, _ := kv.Key.(*ast.Ident) // map keys need not be names
						if v, isField := l.info.Uses[id].(*types.Var); isField {
							set[v.Origin()] = true
						}
					} else if ok {
						set[st.Field(i).Origin()] = true
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					target(lhs)
				}
			case *ast.IncDecStmt:
				target(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					target(n.X)
				}
			}
			return true
		})
	}
	return set
}

// interfaces collects every interface type the loaded code can satisfy:
// those declared in a loaded or imported package, error, and the
// anonymous ones its expressions use (q.(interface{ Unwrap() Querier })).
func (l *loader) interfaces() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if it, ok := p.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok {
				out = append(out, it)
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range l.pkgs {
		walk(p)
	}
	for _, tv := range l.info.Types {
		if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
			out = append(out, it)
		}
	}
	return out
}

// implements reports whether named or its pointer satisfies an interface
// that has a method called name.
func implements(named *types.Named, name string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		if m, _, _ := types.LookupFieldOrMethod(it, false, nil, name); m == nil {
			continue
		}
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

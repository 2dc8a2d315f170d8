package beyondft

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiAllowlist names the exported functions and methods under internal/ that
// may stand with no non-test caller, each with its reason.
var apiAllowlist = map[string]string{
	"graph.ViewConnected":     "planned: search candidates as overlays check connectivity with it",
	"graph.MaxWeightMatching": "planned: worst-case TMs re-match racks on GK's dual lengths with it",
	"golden.Write":            "test helper: golden files are written from tests only",
	"golden.Read":             "test helper: golden files are read from tests only",
	"golden.Bits":             "test helper: goldens pin float bits",
	"golden.FNV":              "test helper: goldens pin digests",
}

// TestNoUnreachableAPI fails when an exported function or method under
// internal/ has no caller in any non-test file of the module (cmd/,
// benchmark/ and examples/ included): such code is kept, documented and
// tested for nobody. Delete it, move it into the _test.go that uses it, or
// give it an allowlist entry with its reason.
func TestNoUnreachableAPI(t *testing.T) {
	fset := token.NewFileSet()
	files, err := parseModule(fset, ".")
	if err != nil {
		t.Fatal(err)
	}
	found, err := unreachableAPI(fset, files, "internal/")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, u := range found {
		seen[u.name] = true
		if _, ok := apiAllowlist[u.name]; !ok {
			t.Errorf("%s (%s:%d, %d lines) has no non-test caller", u.name, u.file, u.line, u.lines)
		}
	}
	for name := range apiAllowlist {
		if !seen[name] {
			t.Errorf("allowlist entry %s is stale: it has a caller or is gone", name)
		}
	}
}

// TestUnreachableAPIScan plants each case the scan must decide on in a small
// in-memory module, so the gate cannot pass by finding nothing.
func TestUnreachableAPIScan(t *testing.T) {
	srcs := map[string]map[string]string{
		"m/internal/p": {
			"p.go": `package p

import "fmt"

func Unused() {}

// TestOnly is called from p_test.go alone.
func TestOnly() int {
	return 1
}

func Generic[T any](v T) T { return v }

type T struct{}

func (T) ByValue() {}

func (T) String() string { return fmt.Sprint("t") }

func (T) Visit() {}

type Visitor interface{ Visit() }

func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}
`,
			"p_test.go": `package p

import "testing"

func TestP(t *testing.T) { _ = TestOnly() }
`,
		},
		"m/cmd/c": {
			"main.go": `package main

import "m/internal/p"

func main() {
	_ = p.Generic[int](1)
	f := p.T{}.ByValue
	f()
}
`,
		},
	}
	scan := func(paths ...string) string {
		fset := token.NewFileSet()
		files := map[string][]*ast.File{}
		for _, path := range paths {
			for name, src := range srcs[path] {
				f, err := parser.ParseFile(fset, filepath.Join(path, name), src, parser.ParseComments)
				if err != nil {
					t.Fatal(err)
				}
				files[path] = append(files[path], f)
			}
		}
		found, err := unreachableAPI(fset, files, "m/internal/")
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, u := range found {
			got = append(got, fmt.Sprintf("%s:%d:%d", u.name, u.line, u.lines))
		}
		return strings.Join(got, " ")
	}
	if got, want := scan("m/internal/p", "m/cmd/c"), "p.Recursive:24:6 p.TestOnly:8:4 p.Unused:5:1"; got != want {
		t.Errorf("flagged %q, want %q", got, want)
	}
	// Without the instantiation and the method value, both are flagged; the
	// interface-named methods stay skipped.
	if got, want := scan("m/internal/p"), "p.Generic:12:1 p.Recursive:24:6 p.T.ByValue:16:1 p.TestOnly:8:4 p.Unused:5:1"; got != want {
		t.Errorf("without callers: flagged %q, want %q", got, want)
	}
}

type unreachable struct {
	name, file  string
	line, lines int
}

// parseModule parses the non-test Go files of every package under root
// (testdata and dot directories skipped), keyed by import path.
func parseModule(fset *token.FileSet, root string) (map[string][]*ast.File, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var modPath string
	for _, l := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(l); len(f) == 2 && f[0] == "module" {
			modPath = f[1]
		}
	}
	if modPath == "" {
		return nil, errors.New("go.mod names no module")
	}
	files := map[string][]*ast.File{}
	err = filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		if errors.As(err, new(*build.NoGoError)) {
			return nil
		} else if err != nil {
			return err
		}
		path := modPath
		if dir != root {
			path += "/" + filepath.ToSlash(dir)
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				return err
			}
			files[path] = append(files[path], f)
		}
		return nil
	})
	return files, err
}

// unreachableAPI type-checks files (import path → files; _test.go files are
// dropped) and returns the exported functions and methods declared in
// packages whose path contains under that nothing outside their own body
// uses, sorted by name. A generic's use counts for its origin. Methods that
// may be reached through an interface are skipped: those named like a method
// of any interface in the module, and those whose receiver implements a
// standard-library interface with that method.
func unreachableAPI(fset *token.FileSet, files map[string][]*ast.File, under string) ([]unreachable, error) {
	for path, fs := range files {
		kept := fs[:0]
		for _, f := range fs {
			if !strings.HasSuffix(fset.File(f.Pos()).Name(), "_test.go") {
				kept = append(kept, f)
			}
		}
		files[path] = kept
	}
	std := importer.Default()
	pkgs := map[string]*types.Package{}
	infos := map[string]*types.Info{}
	var check func(path string) (*types.Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if _, ok := files[path]; ok {
			return check(path)
		}
		return std.Import(path)
	})
	check = func(path string) (*types.Package, error) {
		if p, ok := pkgs[path]; ok {
			if p == nil {
				return nil, fmt.Errorf("import cycle through %s", path)
			}
			return p, nil
		}
		pkgs[path] = nil
		info := &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Types:      map[ast.Expr]types.TypeAndValue{},
		}
		p, err := (&types.Config{Importer: imp}).Check(path, fset, files[path], info)
		if err != nil {
			return nil, err
		}
		pkgs[path], infos[path] = p, info
		return p, nil
	}
	paths := make([]string, 0, len(files))
	for path := range files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := check(path); err != nil {
			return nil, err
		}
	}

	// The candidates, with the extent of each declaration.
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, path := range paths {
		if !strings.Contains(path+"/", under) {
			continue
		}
		for _, f := range files[path] {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					decls[infos[path].Defs[fd.Name].(*types.Func)] = fd
				}
			}
		}
	}

	used := map[*types.Func]bool{}
	ifaceNames := map[string]bool{}
	var stdIfaces []*types.Interface
	for _, path := range paths {
		info := infos[path]
		use := func(id *ast.Ident, obj types.Object) {
			fn, ok := obj.(*types.Func)
			if !ok {
				return
			}
			fn = fn.Origin()
			if fd := decls[fn]; fd == nil || id.Pos() < fd.Pos() || id.Pos() >= fd.End() {
				used[fn] = true
			}
		}
		for id, obj := range info.Uses {
			use(id, obj)
		}
		for sel, s := range info.Selections {
			use(sel.Sel, s.Obj())
		}
		for e, tv := range info.Types {
			if _, ok := e.(*ast.InterfaceType); ok {
				it := tv.Type.Underlying().(*types.Interface)
				for i := 0; i < it.NumMethods(); i++ {
					ifaceNames[it.Method(i).Name()] = true
				}
			}
		}
	}
	seenStd := map[*types.Package]bool{}
	var walkStd func(p *types.Package)
	walkStd = func(p *types.Package) {
		if seenStd[p] {
			return
		}
		seenStd[p] = true
		if _, ok := files[p.Path()]; !ok {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
						stdIfaces = append(stdIfaces, it)
					}
				}
			}
		}
		for _, q := range p.Imports() {
			walkStd(q)
		}
	}
	for _, path := range paths {
		walkStd(pkgs[path])
	}
	stdIfaces = append(stdIfaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	var out []unreachable
	for fn, fd := range decls {
		if used[fn] {
			continue
		}
		name := fn.Pkg().Name() + "." + fn.Name()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if ifaceNames[fn.Name()] || implementsStd(recv.Type(), fn.Name(), stdIfaces) {
				continue
			}
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			name = fn.Pkg().Name() + "." + rt.(*types.Named).Obj().Name() + "." + fn.Name()
		}
		start := fd.Pos()
		if fd.Doc != nil {
			start = fd.Doc.Pos()
		}
		from, to := fset.Position(start), fset.Position(fd.End())
		out = append(out, unreachable{name: name, file: from.Filename, line: fset.Position(fd.Pos()).Line, lines: to.Line - from.Line + 1})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

// implementsStd reports whether recv, or a pointer to it, implements one of
// ifaces that has a method called name.
func implementsStd(recv types.Type, name string, ifaces []*types.Interface) bool {
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	ptr := types.NewPointer(recv)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name && (types.Implements(recv, it) || types.Implements(ptr, it)) {
				return true
			}
		}
	}
	return false
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

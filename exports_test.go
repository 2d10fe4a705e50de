package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// allowListFile names the functions and methods that may stay in
// production although only tests reach them, one entry a line, each
// with its reason.
const allowListFile = "testdata/testonly-allow.txt"

// maxAllowEntries caps the allow-list, so that exempting a function
// stays the exception and moving it into a test file the rule.
const maxAllowEntries = 10

// TestNoTestOnlyExports fails on any function or method declared in a
// non-test file of this module that non-test code does not reach:
// production holds only what runs, and oracles and accessors that only
// tests call live in _test.go files. The benchmark module (benchmark/)
// counts as non-test code, but its own declarations are not checked.
func TestNoTestOnlyExports(t *testing.T) {
	pkgs, err := readModule(".", "repro", "benchmark")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(allowListFile)
	if err != nil {
		t.Fatal(err)
	}
	allow, err := parseAllowList(string(raw))
	if err != nil {
		t.Fatalf("%s: %v", allowListFile, err)
	}
	if len(allow) > maxAllowEntries {
		t.Errorf("%s has %d entries; at most %d are allowed", allowListFile, len(allow), maxAllowEntries)
	}
	findings, err := checkTestOnly(pkgs, allow, importer.Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// srcPackage is one package's non-test sources.
type srcPackage struct {
	path     string
	files    map[string]string // file name → source
	consumer bool              // a user of the module: its code reaches, its declarations are not checked
}

// readModule reads the non-test Go files under root that the default
// build context selects, one srcPackage per directory, with import paths
// under modPath. Directories under consumerDir are consumers; the
// benchmark module's path (repro/benchmark) is the one this mapping
// gives it.
func readModule(root, modPath, consumerDir string) ([]*srcPackage, error) {
	byDir := map[string]*srcPackage{}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		sp := byDir[dir]
		if sp == nil {
			rel, err := filepath.Rel(root, dir)
			if err != nil {
				return err
			}
			rel = filepath.ToSlash(rel)
			sp = &srcPackage{path: modPath, files: map[string]string{},
				consumer: rel == consumerDir || strings.HasPrefix(rel, consumerDir+"/")}
			if rel != "." {
				sp.path += "/" + rel
			}
			byDir[dir] = sp
			dirs = append(dirs, dir)
		}
		sp.files[filepath.ToSlash(path)] = string(src)
		return nil
	})
	if err != nil {
		return nil, err
	}
	pkgs := make([]*srcPackage, len(dirs))
	for i, dir := range dirs {
		pkgs[i] = byDir[dir]
	}
	return pkgs, nil
}

// allowEntry is one allow-list line: a function, or several methods of
// one type, in one package, with the reason they stay in production.
type allowEntry struct {
	pkg    string
	names  []string // "Func" or "Type.Method"
	reason string
}

// parseAllowList reads lines of the form
//
//	<import path> <name> [<Type.Method> ...]: <reason>
//
// where several names must all be methods of one type. Blank lines and
// lines starting with # are skipped.
func parseAllowList(text string) ([]allowEntry, error) {
	var out []allowEntry
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		head, reason, ok := strings.Cut(line, ":")
		reason = strings.TrimSpace(reason)
		fields := strings.Fields(head)
		if !ok || reason == "" || len(fields) < 2 {
			return nil, fmt.Errorf("line %d: want \"<package> <name> [<name> ...]: <reason>\"", i+1)
		}
		e := allowEntry{pkg: fields[0], names: fields[1:], reason: reason}
		if len(e.names) > 1 {
			recv, _, _ := strings.Cut(e.names[0], ".")
			for _, n := range e.names {
				if r, _, ok := strings.Cut(n, "."); !ok || r != recv {
					return nil, fmt.Errorf("line %d: several names in one entry must be methods of one type", i+1)
				}
			}
		}
		out = append(out, e)
	}
	return out, nil
}

// checkTestOnly type-checks pkgs, importing every other package through
// std, and returns one finding per checked function that non-test code
// does not reach and allow does not exempt, then one per allow-list name
// that is stale: it names nothing, or something production reaches.
//
// Reached means: named, directly or through a chain of functions, by a
// root. The roots are every main and init function, every package-level
// variable's initialiser, all of a consumer package's code, and every
// method that lets its receiver satisfy an interface type found in the
// non-test code or declared in a standard-library package it imports.
func checkTestOnly(pkgs []*srcPackage, allow []allowEntry, std types.Importer) ([]string, error) {
	fset := token.NewFileSet()
	units, err := typeCheck(fset, pkgs, std)
	if err != nil {
		return nil, err
	}
	byPath := map[string]*srcPackage{}
	for _, sp := range pkgs {
		byPath[sp.path] = sp
	}

	type decl struct {
		key   string // "<import path> <name>", the allow-list's form
		pos   token.Position
		lines int
	}
	declared := map[*types.Func]decl{}
	edges := map[*types.Func][]*types.Func{}
	var roots []*types.Func
	ifaces := map[string]*types.Interface{}
	addIface := func(t types.Type) {
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
			ifaces[types.TypeString(t, nil)] = it
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, u := range units {
		for _, tv := range u.info.Types {
			addIface(tv.Type)
		}
		for _, obj := range u.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, f := range u.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := u.info.Defs[d.Name].(*types.Func)
					refs := funcRefs(u.info, d)
					entry := d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && u.pkg.Name() == "main")
					if u.src.consumer || entry {
						roots = append(roots, refs...)
						continue
					}
					start := d.Pos()
					if d.Doc != nil {
						start = d.Doc.Pos()
					}
					declared[obj] = decl{
						key:   u.pkg.Path() + " " + funcName(obj),
						pos:   fset.Position(d.Name.Pos()),
						lines: fset.Position(d.End()).Line - fset.Position(start).Line + 1,
					}
					edges[obj] = refs
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						roots = append(roots, funcRefs(u.info, d)...)
					}
				}
			}
		}
	}
	seen := map[*types.Package]bool{}
	var stdIfaces func(p *types.Package)
	stdIfaces = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if _, mine := byPath[p.Path()]; !mine {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					addIface(tn.Type())
				}
			}
		}
		for _, q := range p.Imports() {
			stdIfaces(q)
		}
	}
	for _, u := range units {
		stdIfaces(u.pkg)
	}
	for _, u := range units {
		if u.src.consumer {
			continue
		}
		for _, name := range u.pkg.Scope().Names() {
			tn, ok := u.pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams().Len() > 0 {
				continue
			}
			for _, recv := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
				for _, it := range ifaces {
					if !types.Implements(recv, it) {
						continue
					}
					for i := 0; i < it.NumMethods(); i++ {
						m := it.Method(i)
						if f, ok := lookupMethod(recv, m); ok {
							roots = append(roots, f)
						}
					}
				}
			}
		}
	}

	live := map[*types.Func]bool{}
	for len(roots) > 0 {
		f := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if live[f] {
			continue
		}
		live[f] = true
		roots = append(roots, edges[f]...)
	}

	allowed := map[string]bool{}
	for _, e := range allow {
		for _, n := range e.names {
			allowed[e.pkg+" "+n] = true
		}
	}
	type finding struct {
		pos token.Position
		msg string
	}
	var found []finding
	status := map[string]bool{} // declared key → live
	for f, d := range declared {
		status[d.key] = live[f]
		if live[f] || allowed[d.key] {
			continue
		}
		found = append(found, finding{d.pos, fmt.Sprintf("%s: %s (%d lines) is reached only from tests: move it into a _test.go file, delete it, or allow-list it with a reason",
			d.pos, d.key, d.lines)})
	}
	sort.Slice(found, func(i, j int) bool {
		a, b := found[i].pos, found[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	out := make([]string, 0, len(found))
	for _, f := range found {
		out = append(out, f.msg)
	}
	for _, e := range allow {
		for _, n := range e.names {
			key := e.pkg + " " + n
			if isLive, ok := status[key]; !ok {
				out = append(out, fmt.Sprintf("stale allow-list entry: %s names no function or method", key))
			} else if isLive {
				out = append(out, fmt.Sprintf("stale allow-list entry: %s is reached from production", key))
			}
		}
	}
	return out, nil
}

// unit is one type-checked package.
type unit struct {
	src   *srcPackage
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// typeCheck parses and type-checks pkgs, each after the packages it
// imports, importing every other package through std.
func typeCheck(fset *token.FileSet, pkgs []*srcPackage, std types.Importer) ([]*unit, error) {
	byPath := map[string]*srcPackage{}
	for _, sp := range pkgs {
		byPath[sp.path] = sp
	}
	checked := map[string]*unit{}
	var units []*unit
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if u, ok := checked[path]; ok {
			return u.pkg, nil
		}
		sp, ok := byPath[path]
		if !ok {
			return std.Import(path)
		}
		names := make([]string, 0, len(sp.files))
		for name := range sp.files {
			names = append(names, name)
		}
		sort.Strings(names)
		u := &unit{src: sp, info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}}
		for _, name := range names {
			f, err := parser.ParseFile(fset, name, sp.files[name], parser.ParseComments)
			if err != nil {
				return nil, err
			}
			u.files = append(u.files, f)
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(path, fset, u.files, u.info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %w", path, err)
		}
		u.pkg = pkg
		checked[path] = u
		units = append(units, u)
		return pkg, nil
	}
	for _, sp := range pkgs {
		if _, err := imp(sp.path); err != nil {
			return nil, err
		}
	}
	return units, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// funcRefs returns every function and method that the code under n
// names, as declared (generic instances mapped to their origin).
func funcRefs(info *types.Info, n ast.Node) []*types.Func {
	var refs []*types.Func
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if f, ok := info.Uses[id].(*types.Func); ok {
				refs = append(refs, f.Origin())
			}
		}
		return true
	})
	return refs
}

// lookupMethod returns the declared method that gives recv the
// interface method m.
func lookupMethod(recv types.Type, m *types.Func) (*types.Func, bool) {
	obj, _, _ := types.LookupFieldOrMethod(recv, false, m.Pkg(), m.Name())
	f, ok := obj.(*types.Func)
	if !ok {
		return nil, false
	}
	return f.Origin(), true
}

// funcName is a function's allow-list name: "Func" or "Type.Method".
func funcName(f *types.Func) string {
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return f.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj().Name() + "." + f.Name()
}

// TestTestOnlyCheckFixture runs the check over a small module written to
// a temporary directory and pins exactly what it reports: functions that
// only a test or nothing reaches, directly or through a chain, and stale
// allow-list entries; and what it does not: methods reached through a
// module interface, an interface literal and a standard-library
// interface, code only the consumer (benchmark) reaches, and an
// allow-listed function.
func TestTestOnlyCheckFixture(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"lib/lib.go": `package lib

type Shape interface{ Area() float64 }

type Square struct{ S float64 }

func (q Square) Area() float64 { return q.S * q.S }

type Closer struct{}

func (Closer) Release() {}

type Src struct{ x int64 }

func (s *Src) Int63() int64  { s.x++; return s.x }
func (s *Src) Seed(v int64)  { s.x = v }

func Used() int      { return helper() }
func helper() int    { return 1 }
func TestOnly() int  { return 2 }
func orphan() int    { return chain() }
func chain() int     { return 3 }
func BenchOnly() int { return 4 }
func Allowed() int   { return 5 }
`,
		"lib/lib_test.go": `package lib

import "testing"

func TestLib(t *testing.T) { _ = TestOnly() }
`,
		"cmd/app/main.go": `package main

import (
	"fmt"
	"math/rand"

	"fix/lib"
)

func main() {
	var s lib.Shape = lib.Square{S: 2}
	var x any = lib.Closer{}
	if r, ok := x.(interface{ Release() }); ok {
		r.Release()
	}
	fmt.Println(s.Area(), lib.Used(), rand.New(&lib.Src{}).Intn(3))
}
`,
		"bench/bench.go": `package main

import "fix/lib"

func main() { _ = lib.BenchOnly() }
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := readModule(dir, "fix", "bench")
	if err != nil {
		t.Fatal(err)
	}
	allow, err := parseAllowList(`
# fixture
fix/lib Allowed: kept on purpose
fix/lib Gone: names nothing
fix/lib Used: production reaches it
`)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := checkTestOnly(pkgs, allow, importer.Default())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"fix/lib TestOnly (1 lines) is reached only from tests",
		"fix/lib orphan (1 lines) is reached only from tests",
		"fix/lib chain (1 lines) is reached only from tests",
		"stale allow-list entry: fix/lib Gone names no function or method",
		"stale allow-list entry: fix/lib Used is reached from production",
	}
	if len(findings) != len(want) {
		t.Fatalf("%d findings, want %d:\n%s", len(findings), len(want), strings.Join(findings, "\n"))
	}
	for i, w := range want {
		if !strings.Contains(findings[i], w) {
			t.Errorf("finding %d = %q, want it to contain %q", i, findings[i], w)
		}
	}
}

// TestParseAllowList pins the allow-list's form: a reason is required,
// and several names share an entry only as methods of one type.
func TestParseAllowList(t *testing.T) {
	for _, tc := range []struct {
		text string
		ok   bool
	}{
		{"p F: why", true},
		{"p T.A T.B: why", true},
		{"p F", false},
		{"p F:", false},
		{"p: why", false},
		{"p F G: why", false},
		{"p T.A U.B: why", false},
	} {
		if _, err := parseAllowList(tc.text); (err == nil) != tc.ok {
			t.Errorf("parseAllowList(%q): err = %v, want ok %v", tc.text, err, tc.ok)
		}
	}
}

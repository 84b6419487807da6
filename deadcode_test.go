package coach

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed lists the declarations that no program code reaches but
// that stay, each with its reason. A name is written as the scan prints
// it: "pkg.Name" or "pkg.Type.Method", pkg being the import path below
// the module (empty for the root package). An allowed name is a root, so
// what it calls is kept with it.
var testOnlyAllowed = map[string]string{
	".LoadTrace":                "README.md shows it",
	".RunExperiment":            "README.md and docs/experiments.md show it",
	"internal/trace.Trace.Save": "README.md names it as the writer of the file coach.LoadTrace reads",

	"internal/fault.InjectorForCrashes": "test seam: serve's failure tests drive a crash schedule through it",
	"internal/coachvm.CVM.SchedDemand":  "test seam: scheduler tests read the demand a CoachVM brings to a pool",
	"internal/coachvm.Pool.Guaranteed":  "test seam: scheduler tests check a drained pool is pristine",
	"internal/coachvm.Pool.DemandAt":    "test seam: scheduler tests check window demand stays within capacity",
	"internal/core.DataPlane.ServerOf":  "test seam: core and serve tests check memory lands where the scheduler placed it",
	"internal/memsim.VMMem.WSS":         "test seam: core and serve tests read the working set the data plane set",
	"internal/timeseries.Runs.Val":      "float view FuzzWindowPercentile compares the code path against",
	"internal/timeseries.Cursor.Seek":   "float view FuzzWindowPercentile compares the code path against",
}

const modulePath = "github.com/coach-oss/coach"

// goPackage is the part of `go list -json` the scan reads.
type goPackage struct {
	Dir, ImportPath string
	GoFiles         []string
}

// TestNoTestOnlyDeclarations type-checks every package's non-test files
// and fails on any top-level declaration outside bench/ that no program
// reaches: not main, not init, not bench/ (frozen, so everything it names
// is kept), and not an interface method of a reached type. A use inside a
// declaration nothing reaches does not count, so a helper only dead code
// calls is reported with it.
func TestNoTestOnlyDeclarations(t *testing.T) {
	out, err := exec.Command("go", "list", "-json", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []*goPackage
	byPath := map[string]*goPackage{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(goPackage)
		if err := dec.Decode(p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
		byPath[p.ImportPath] = p
	}
	if byPath[modulePath] == nil {
		t.Fatal("go list did not report the root package")
	}

	s := &scan{
		fset:    token.NewFileSet(),
		byPath:  byPath,
		checked: map[string]*types.Package{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
		declOf:  map[types.Object]*decl{},
		methods: map[*types.TypeName][]*decl{},
	}
	s.std = importer.ForCompiler(s.fset, "source", nil).(types.ImporterFrom)
	s.ifaces = []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	// Encoders find these interfaces by reflection.
	for _, path := range []string{"encoding", "encoding/gob", "encoding/json"} {
		if _, err := s.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range pkgs {
		if _, err := s.ImportFrom(p.ImportPath, p.Dir, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Reached without the allowlist, an allowed name needs no entry.
	declared := map[string]bool{}
	s.link(nil)
	for _, d := range s.decls {
		if _, ok := testOnlyAllowed[d.name]; ok && d.live {
			t.Errorf("a program reaches %s: drop it from testOnlyAllowed", d.name)
		}
		declared[d.name] = true
	}
	for name := range testOnlyAllowed {
		if !declared[name] {
			t.Errorf("testOnlyAllowed names %s, which is not declared", name)
		}
	}

	s.link(testOnlyAllowed)
	var dead []string
	for _, d := range s.decls {
		if !d.live {
			dead = append(dead, fmt.Sprintf("%s (%s)", d.name, s.fset.Position(d.node.Pos())))
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("only tests reach %s", d)
	}
}

// A decl is one top-level function, method, type spec or value spec.
type decl struct {
	name   string
	node   ast.Node
	root   bool
	live   bool
	uses   []types.Object
	recv   *types.TypeName // a method's receiver type
	method string          // a method's name
	isTyp  *types.TypeName // a type spec's type
}

type scan struct {
	fset    *token.FileSet
	std     types.ImporterFrom
	byPath  map[string]*goPackage
	checked map[string]*types.Package
	info    *types.Info
	decls   []*decl
	declOf  map[types.Object]*decl
	ifaces  []*types.Interface
	methods map[*types.TypeName][]*decl
}

// ImportFrom type-checks a module package from its non-test files and
// leaves the standard library to the source importer.
func (s *scan) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg := s.checked[path]; pkg != nil {
		return pkg, nil
	}
	p := s.byPath[path]
	if p == nil {
		pkg, err := s.std.ImportFrom(path, dir, mode)
		if err == nil {
			s.addInterfaces(pkg.Scope())
		}
		return pkg, err
	}
	var files []*ast.File
	for _, f := range p.GoFiles {
		file, err := parser.ParseFile(s.fset, filepath.Join(p.Dir, f), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, file)
	}
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(path, s.fset, files, s.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	s.checked[path] = pkg
	s.addInterfaces(pkg.Scope())
	frozen := path == modulePath+"/bench"
	for _, f := range files {
		s.collect(pkg, f, frozen)
	}
	return pkg, nil
}

func (s *scan) Import(path string) (*types.Package, error) { return s.ImportFrom(path, "", 0) }

func (s *scan) addInterfaces(scope *types.Scope) {
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				s.ifaces = append(s.ifaces, it)
			}
		}
	}
}

// collect records one file's top-level declarations and the objects each
// one's source range uses.
func (s *scan) collect(pkg *types.Package, f *ast.File, frozen bool) {
	add := func(node ast.Node, names []*ast.Ident) *decl {
		d := &decl{node: node, root: frozen}
		for _, id := range names {
			if obj := s.info.Defs[id]; obj != nil {
				s.declOf[obj] = d
			}
			if id.Name == "_" {
				continue
			}
			if d.name == "" {
				d.name = s.short(pkg) + "." + id.Name
			}
		}
		ast.Inspect(node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if obj := s.info.Uses[n]; obj != nil {
					d.uses = append(d.uses, obj)
				}
			case *ast.InterfaceType:
				if tv, ok := s.info.Types[n]; ok {
					s.ifaces = append(s.ifaces, tv.Type.Underlying().(*types.Interface))
				}
			}
			return true
		})
		if d.name != "" {
			s.decls = append(s.decls, d)
		}
		return d
	}
	for _, gd := range f.Decls {
		switch gd := gd.(type) {
		case *ast.FuncDecl:
			d := add(gd, []*ast.Ident{gd.Name})
			if gd.Recv == nil {
				d.root = d.root || gd.Name.Name == "init" || (pkg.Name() == "main" && gd.Name.Name == "main")
				continue
			}
			fn := s.info.Defs[gd.Name].(*types.Func)
			rt := fn.Type().(*types.Signature).Recv().Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			d.recv, d.method = rt.(*types.Named).Obj(), gd.Name.Name
			d.name = s.short(pkg) + "." + d.recv.Name() + "." + d.method
			s.methods[d.recv] = append(s.methods[d.recv], d)
		case *ast.GenDecl:
			if gd.Tok == token.CONST && gd.Lparen.IsValid() {
				// A const block is an enumeration, read as one.
				var names []*ast.Ident
				for _, spec := range gd.Specs {
					names = append(names, spec.(*ast.ValueSpec).Names...)
				}
				add(gd, names)
				continue
			}
			for _, spec := range gd.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					d := add(sp, []*ast.Ident{sp.Name})
					d.isTyp = s.info.Defs[sp.Name].(*types.TypeName)
				case *ast.ValueSpec:
					add(sp, sp.Names)
				}
			}
		}
	}
}

// short is a package's import path below the module.
func (s *scan) short(pkg *types.Package) string {
	return strings.TrimPrefix(strings.TrimPrefix(pkg.Path(), modulePath), "/")
}

// link marks live everything reachable from the roots and from the
// allowed names.
func (s *scan) link(allowed map[string]string) {
	for _, d := range s.decls {
		d.live = false
	}
	var work []*decl
	mark := func(d *decl) {
		if d != nil && !d.live {
			d.live = true
			work = append(work, d)
		}
	}
	for _, d := range s.decls {
		if _, ok := allowed[d.name]; ok || d.root {
			mark(d)
		}
	}
	for len(work) > 0 {
		d := work[len(work)-1]
		work = work[:len(work)-1]
		for _, obj := range d.uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			mark(s.declOf[obj])
		}
		if d.isTyp != nil {
			for _, m := range s.methods[d.isTyp] {
				if s.satisfiesInterface(d.isTyp, m.method) {
					mark(m)
				}
			}
		}
	}
}

// satisfiesInterface reports whether T or *T implements a known interface
// that has a method of this name, so a call may reach it by dynamic
// dispatch.
func (s *scan) satisfiesInterface(tn *types.TypeName, method string) bool {
	t := tn.Type()
	if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
		return true // Implements is unspecified for a generic type
	}
	for _, it := range s.ifaces {
		if it.NumMethods() == 0 {
			continue
		}
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == method {
				has = true
				break
			}
		}
		if has && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
			return true
		}
	}
	return false
}

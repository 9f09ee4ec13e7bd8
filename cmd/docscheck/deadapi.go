package main

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
	"path"
	"path/filepath"
	"reflect"
	"strings"
)

// keptOnPurpose names the exported internal/ API that stays although no
// non-test code uses or sets it, one entry and one reason each. A key is a
// package path under internal/ (the whole package), pkg.Name, or
// pkg.Type.Method / pkg.Type.Field for one method or field.
var keptOnPurpose = map[string]string{
	"rpc/wiretest":                   "round-trip, damage and fuzz helpers the typed-body tests of diet, dataman, naming and scheduler share, with method tables those tests fill",
	"rpc.ResetLocal":                 "clears the in-process object registry between the tests of diet, deploy and workflow",
	"diet.Agent.ApplyPlan":           "applies a migration plan without a replan loop in deploy's live tests",
	"diet.Agent.Registry":            "lets the tests of diet and deploy see which children registered",
	"fortranio.Reader.ReadFloat32s":  "reads back the float32 planes grafic's file test checks",
	"naming.Service.Unregister":      "unbinds a name so diet's transport test sees a server vanish after estimating",
	"particles.Set.TotalMass":        "the mass-conservation check of the nbody, grafic, ramses and halo tests",
	"particles.Set.Validate":         "the set-validity check of the nbody, grafic, ramses and halo tests",
	"metrics.Counter.Value":          "reads a counter back in diet's tests, which see agent and SeD counters nowhere else",
	"metrics.Gauge.Value":            "reads a gauge back in diet's tests, which see agent and SeD gauges nowhere else",
	"diet.SeDSpec.Executor":          "lets a test substitute a fake executor for the inline default",
	"simgrid.ExperimentConfig.Spans": "the simulated trace TestCampaignSpansMirrorLiveTaxonomy holds to the live span taxonomy",
	"grafic.Header.Ox":               "part of the GRAFIC header layout; production always writes 0, a test round-trips non-zero values",
	"grafic.Header.Oy":               "part of the GRAFIC header layout; production always writes 0, a test round-trips non-zero values",
	"grafic.Header.Oz":               "part of the GRAFIC header layout; production always writes 0, a test round-trips non-zero values",
}

// CheckUnused type-checks the Go module at root once and flags what its
// non-test code never uses: exported internal/ declarations (deadAPI) and
// exported internal/ struct fields that nothing sets (unsetFields). A bench/
// file, tests included, counts as a user. A tree that does not type-check
// is an error, never an empty list.
func CheckUnused(root string) ([]string, error) {
	m, err := loadModule(root)
	if err != nil {
		return nil, err
	}
	return append(deadAPI(m), unsetFields(m)...), nil
}

// module is every package of a Go module, type-checked once each against
// one standard library, so that an object is the same types.Object in every
// package that sees it.
type module struct {
	fset *token.FileSet
	pkgs []*modPkg // in import order
	own  map[*types.Package]bool
}

// modPkg is one package of the module.
type modPkg struct {
	dir   string // slash-separated, relative to the root
	path  string // import path
	files []*ast.File
	types *types.Package // nil until checked
	info  *types.Info    // non-nil once its check has begun
}

// loadModule parses the non-test files of every package under root, and the
// test files under bench/, for the build context of this host, and
// type-checks each package after the module packages it imports. Only the
// standard library goes through the source importer.
func loadModule(root string) (*module, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("docscheck: %w", err)
	}
	modPath := modulePath(gomod)
	if modPath == "" {
		return nil, errors.New("docscheck: go.mod names no module")
	}
	m := &module{fset: token.NewFileSet(), own: make(map[*types.Package]bool)}
	byPath := make(map[string]*modPkg)
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		dir := path.Dir(rel)
		test := strings.HasSuffix(name, "_test.go")
		if !strings.HasSuffix(name, ".go") || test && dir != "bench" && !strings.HasPrefix(dir, "bench/") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), name); err != nil || !ok {
			return err
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(m.fset, rel, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ipath := modPath
		if dir != "." {
			ipath += "/" + dir
		}
		if test && strings.HasSuffix(f.Name.Name, "_test") {
			ipath += "_test"
		}
		if byPath[ipath] == nil {
			byPath[ipath] = &modPkg{dir: dir, path: ipath}
		}
		byPath[ipath].files = append(byPath[ipath].files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var conf types.Config
	check := func(pkg *modPkg) error {
		if pkg.info != nil {
			if pkg.types == nil {
				return fmt.Errorf("import cycle through %s", pkg.path)
			}
			return nil
		}
		pkg.info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		tpkg, err := conf.Check(pkg.path, m.fset, pkg.files, pkg.info)
		if err != nil {
			return err
		}
		pkg.types = tpkg
		m.pkgs = append(m.pkgs, pkg)
		m.own[tpkg] = true
		return nil
	}
	std := importer.ForCompiler(m.fset, "source", nil)
	conf.Importer = importerFunc(func(ipath string) (*types.Package, error) {
		if pkg := byPath[ipath]; pkg != nil {
			if err := check(pkg); err != nil {
				return nil, err
			}
			return pkg.types, nil
		}
		if ipath == modPath || strings.HasPrefix(ipath, modPath+"/") {
			return nil, errors.New("not in the module")
		}
		return std.Import(ipath)
	})
	for _, ipath := range sortedKeys(byPath) {
		if err := check(byPath[ipath]); err != nil {
			return nil, fmt.Errorf("docscheck: %w", err)
		}
	}
	return m, nil
}

// modulePath is the path the module line of a go.mod names.
func modulePath(gomod []byte) string {
	for _, line := range strings.Split(string(gomod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`)
		}
	}
	return ""
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// declared is one exported internal/ object a check reports by key.
type declared struct {
	obj types.Object
	pkg string // package path under internal/
	key string // pkg.Name, pkg.Type.Method or pkg.Type.Field
}

// exported lists the exported package-level objects of the internal/
// packages, and the exported methods and fields of their exported types.
func (m *module) exported() (objs, methods, fields []declared) {
	for _, p := range m.pkgs {
		pkg, ok := strings.CutPrefix(p.dir, "internal/")
		if !ok {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			objs = append(objs, declared{obj, pkg, pkg + "." + name})
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if f := named.Method(i); f.Exported() {
					methods = append(methods, declared{f, pkg, pkg + "." + name + "." + f.Name()})
				}
			}
			switch u := named.Underlying().(type) {
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					if f := u.ExplicitMethod(i); f.Exported() {
						methods = append(methods, declared{f, pkg, pkg + "." + name + "." + f.Name()})
					}
				}
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					if f := u.Field(i); f.Exported() && !f.Embedded() && !tagged(u.Tag(i)) {
						fields = append(fields, declared{f, pkg, pkg + "." + name + "." + f.Name()})
					}
				}
			}
		}
	}
	return objs, methods, fields
}

// tagged reports a field a JSON or XML decoder sets.
func tagged(tag string) bool {
	_, json := reflect.StructTag(tag).Lookup("json")
	_, xml := reflect.StructTag(tag).Lookup("xml")
	return json || xml
}

// deadAPI flags each exported internal/ declaration that no code of the
// module uses, by object identity. A method is used when it is called or
// taken as a value; a concrete method also when it implements a method that
// is called through an interface of the module, or any interface declared
// outside it (String for fmt.Stringer, Error for error). An interface method
// is used only when it is called through the interface.
func deadAPI(m *module) []string {
	used := make(map[types.Object]bool)
	var dispatched []*types.Func // interface methods called through their interface
	for _, p := range m.pkgs {
		for _, obj := range p.info.Uses {
			obj = origin(obj)
			if f, ok := obj.(*types.Func); ok && !used[f] && isInterfaceMethod(f) {
				dispatched = append(dispatched, f)
			}
			used[obj] = true
		}
	}
	external := externalInterfaces(m)
	implements := func(f *types.Func, ifaceMethods []*types.Func) bool {
		recv := recvType(f)
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		for _, im := range ifaceMethods {
			iface := recvType(im).Underlying().(*types.Interface)
			if im.Name() == f.Name() && (types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)) {
				return true
			}
		}
		return false
	}
	objs, methods, _ := m.exported()
	var problems []string
	for _, d := range append(objs, methods...) {
		if used[d.obj] || listed(d) {
			continue
		}
		if f, ok := d.obj.(*types.Func); ok && recvType(f) != nil && !isInterfaceMethod(f) && (implements(f, dispatched) || implements(f, external[f.Name()])) {
			continue
		}
		problems = append(problems, fmt.Sprintf("%s: %s is exported but no non-test code uses it: delete it, move it into the test that needs it, or list it in keptOnPurpose", m.pos(d.obj), d.key))
	}
	sortByPlace(problems)
	return problems
}

// externalInterfaces maps a method name to the methods of that name of the
// exported interfaces declared outside the module in the packages it
// imports, directly or not, and the universe's error.
func externalInterfaces(m *module) map[string][]*types.Func {
	out := make(map[string][]*types.Func)
	add := func(obj types.Object) {
		tn, ok := obj.(*types.TypeName)
		if !ok || !tn.Exported() {
			return
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || named.TypeParams().Len() > 0 {
			return
		}
		if iface, ok := named.Underlying().(*types.Interface); ok && iface.IsMethodSet() {
			for i := 0; i < iface.NumMethods(); i++ {
				f := iface.Method(i)
				out[f.Name()] = append(out[f.Name()], f)
			}
		}
	}
	add(types.Universe.Lookup("error"))
	seen := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		if !m.own[pkg] {
			for _, name := range pkg.Scope().Names() {
				add(pkg.Scope().Lookup(name))
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range m.pkgs {
		walk(p.types)
	}
	return out
}

// unsetFields flags each exported field of an exported internal/ struct that
// no code of the module sets. A composite literal sets the fields it names,
// or all of them when it is positional; an assignment, ++, -- or & sets
// every field on its selector path (res.Batch.Reservations++ sets Batch
// too). A field with a json or xml tag is set by its decoder. A decoder of
// the module's own (a function that takes one of its *Reader types, such as
// a wire body's ReadWire) sets nothing: it copies what an encoder read from
// a field that something else has to set.
func unsetFields(m *module) []string {
	set := make(map[types.Object]bool)
	for _, p := range m.pkgs {
		info := p.info
		var setPath func(ast.Expr)
		setPath = func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.ParenExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.SelectorExpr:
					sel := info.Selections[x]
					if sel == nil || sel.Kind() != types.FieldVal {
						return
					}
					set[origin(sel.Obj())] = true
					e = x.X
				default:
					return
				}
			}
		}
		decoder := func(params *ast.FieldList) bool {
			for _, f := range params.List {
				if ptr, ok := info.Types[f.Type].Type.(*types.Pointer); ok {
					if named, ok := ptr.Elem().(*types.Named); ok && named.Obj().Name() == "Reader" && m.own[named.Obj().Pkg()] {
						return true
					}
				}
			}
			return false
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					return !decoder(n.Type.Params)
				case *ast.FuncLit:
					return !decoder(n.Type.Params)
				case *ast.CompositeLit:
					t := info.Types[n].Type
					if ptr, ok := t.(*types.Pointer); ok {
						t = ptr.Elem()
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok && info.Uses[key] != nil {
								set[origin(info.Uses[key])] = true
							}
						} else {
							set[origin(st.Field(i))] = true
						}
					}
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, lhs := range n.Lhs {
							setPath(lhs)
						}
					}
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						for _, e := range []ast.Expr{n.Key, n.Value} {
							setPath(e)
						}
					}
				case *ast.IncDecStmt:
					setPath(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						setPath(n.X)
					}
				}
				return true
			})
		}
	}
	_, _, fields := m.exported()
	var problems []string
	for _, d := range fields {
		if !set[d.obj] && !listed(d) {
			problems = append(problems, fmt.Sprintf("%s: %s is a field no non-test code sets: delete it, make it a constant, or list it in keptOnPurpose", m.pos(d.obj), d.key))
		}
	}
	sortByPlace(problems)
	return problems
}

// listed reports whether keptOnPurpose names d or its package.
func listed(d declared) bool {
	_, byKey := keptOnPurpose[d.key]
	_, byPkg := keptOnPurpose[d.pkg]
	return byKey || byPkg
}

// origin is the declared object behind an instantiated generic one.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// recvType is the receiver type of a method, nil for a function.
func recvType(f *types.Func) types.Type {
	if recv := f.Type().(*types.Signature).Recv(); recv != nil {
		return recv.Type()
	}
	return nil
}

func isInterfaceMethod(f *types.Func) bool {
	recv := recvType(f)
	return recv != nil && types.IsInterface(recv)
}

// pos is an object's file:line, the file relative to the module root.
func (m *module) pos(obj types.Object) string {
	p := m.fset.Position(obj.Pos())
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

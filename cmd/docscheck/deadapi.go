package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// sharedTestSupport names the exported internal/ API that exists for the
// tests of other packages, one entry and one reason each. A key is a
// package path under internal/ (the whole package is test support) or
// pkg.Name / pkg.Type.Method for one declaration.
var sharedTestSupport = map[string]string{
	"rpc/wiretest":                  "round-trip, damage and fuzz helpers the typed-body tests of diet, dataman, naming and scheduler share",
	"rpc.ResetLocal":                "clears the in-process object registry between the tests of diet, deploy and workflow",
	"diet.Agent.ApplyPlan":          "applies a migration plan without a replan loop in deploy's live tests",
	"fortranio.Reader.ReadFloat32s": "reads back the float32 planes grafic's file test checks",
	"naming.Service.Unregister":     "unbinds a name so diet's transport test sees a server vanish after estimating",
}

// apiDecl is one exported declaration in a non-test internal/ file.
type apiDecl struct {
	pos  string // file:line
	pkg  string // package path under internal/
	key  string // pkg.Name or pkg.Type.Method
	name string // the identifier the scan matches
}

// CheckDeadAPI flags an exported internal/ declaration whose name appears
// in no non-test Go file and no bench/ file (tests included) other than in
// the declaration itself. It matches identifier tokens by name, so a dead
// method that shares its name with a live one passes: the check guards
// against re-accretion, it is not a proof of use.
func CheckDeadAPI(root string) ([]string, error) {
	var decls []apiDecl
	uses := make(map[string]int)
	fset := token.NewFileSet()
	err := walkFiles(root, ".go", func(rel string, src []byte) error {
		rel = filepath.ToSlash(rel)
		if strings.Contains("/"+rel, "/testdata/") {
			return nil
		}
		test := strings.HasSuffix(rel, "_test.go")
		if !test && strings.HasPrefix(rel, "internal/") {
			f, err := parser.ParseFile(fset, rel, src, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			decls = append(decls, exportedDecls(fset, path.Dir(strings.TrimPrefix(rel, "internal/")), f)...)
		}
		if test && !strings.HasPrefix(rel, "bench/") {
			return nil
		}
		var s scanner.Scanner
		s.Init(fset.AddFile(rel, -1, len(src)), src, nil, 0)
		for {
			_, tok, lit := s.Scan()
			if tok == token.EOF {
				break
			}
			if tok == token.IDENT {
				uses[lit]++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	declared := make(map[string]int)
	for _, d := range decls {
		declared[d.name]++
	}
	var problems []string
	for _, d := range decls {
		_, byKey := sharedTestSupport[d.key]
		_, byPkg := sharedTestSupport[d.pkg]
		if uses[d.name] > declared[d.name] || byKey || byPkg {
			continue
		}
		problems = append(problems, fmt.Sprintf("%s: %s is exported but only tests use it: delete it, move it into the test that needs it, or list it in sharedTestSupport", d.pos, d.key))
	}
	sort.Strings(problems)
	return problems, nil
}

// exportedDecls lists the exported top-level declarations and methods of f.
func exportedDecls(fset *token.FileSet, pkg string, f *ast.File) []apiDecl {
	var out []apiDecl
	add := func(id *ast.Ident, key string) {
		if id.IsExported() {
			p := fset.Position(id.Pos())
			out = append(out, apiDecl{pos: fmt.Sprintf("%s:%d", p.Filename, p.Line), pkg: pkg, key: key, name: id.Name})
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name, pkg+"."+d.Name.Name)
			} else if recv := recvName(d.Recv.List[0].Type); ast.IsExported(recv) {
				add(d.Name, pkg+"."+recv+"."+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name, pkg+"."+s.Name.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, pkg+"."+id.Name)
					}
				}
			}
		}
	}
	return out
}

// recvName returns the type name of a method receiver: T for T, *T, T[P].
func recvName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

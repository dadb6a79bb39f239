// Package linttest runs lint analyzers over fixture packages and checks
// their diagnostics against `// want "regexp"` comments, in the spirit of
// golang.org/x/tools/go/analysis/analysistest but built purely on the
// standard library.
//
// A fixture is a directory of Go files forming one package (conventionally
// under internal/lint/testdata/src/<name>). The package is type-checked
// under a caller-chosen *import path* — which is how path-scoped analyzers
// (detpure, maprange, obsnilsafe) are pointed at or away from a fixture:
// the same files checked under a virtual-time path must produce findings,
// and under an unscoped path must produce none.
//
// Expectations are written inline, on the offending line:
//
//	t := time.Now() // want `wall clock`
//
// Each `// want` comment holds one or more backquoted or double-quoted
// regular expressions; the diagnostics reported on that line must match
// them one-to-one (order-insensitive). A diagnostic on a line with no
// want, or a want with no diagnostic, fails the test.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"aiac/internal/lint"
)

// wantRE extracts the quoted expectations from a // want comment.
var wantRE = regexp.MustCompile("`[^`]*`|\"[^\"]*\"")

// Run loads the fixture directory as a package with the given import
// path, runs the analyzer, and reports any mismatch with the fixture's
// `// want` comments as test errors.
func Run(t *testing.T, dir, importPath string, a *lint.Analyzer) {
	t.Helper()
	pkg, err := LoadFixture(dir, importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	RunOn(t, pkg, a)
}

// RunOn is Run on a package loaded already, such as one of a fixture
// module that lint.NewLoader loads with its imports.
func RunOn(t *testing.T, pkg *lint.Package, a *lint.Analyzer) {
	t.Helper()
	diags, err := lint.Run(a, pkg)
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, pkg.Dir, err)
	}
	check(t, pkg, diags)
}

// LoadFixture parses and type-checks one fixture directory as a package
// with the given import path. Standard-library imports resolve through
// the compiler's export data; fixtures must not import anything else.
func LoadFixture(dir, importPath string) (*lint.Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("linttest: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: importer.Default()}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("linttest: type-checking %s as %s: %w", dir, importPath, err)
	}
	return &lint.Package{Path: importPath, Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

type key struct {
	file string
	line int
}

func check(t *testing.T, pkg *lint.Package, diags []lint.Diagnostic) {
	t.Helper()
	wants := map[key][]string{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				k := key{pos.Filename, pos.Line}
				for _, q := range wantRE.FindAllString(c.Text[idx+len("// want "):], -1) {
					wants[k] = append(wants[k], q[1:len(q)-1])
				}
			}
		}
	}
	got := map[key][]string{}
	for _, d := range diags {
		got[diagKey(d)] = append(got[diagKey(d)], d.Message)
	}
	// Every diagnostic must consume a matching want on its line.
	for at, msgs := range got {
		res := append([]string(nil), wants[at]...)
		for _, msg := range msgs {
			matched := -1
			for i, w := range res {
				re, err := regexp.Compile(w)
				if err != nil {
					t.Errorf("%s:%d: bad want regexp %q: %v", at.file, at.line, w, err)
					continue
				}
				if re.MatchString(msg) {
					matched = i
					break
				}
			}
			if matched < 0 {
				t.Errorf("%s:%d: unexpected diagnostic: %s", at.file, at.line, msg)
				continue
			}
			res = append(res[:matched], res[matched+1:]...)
		}
		if len(res) > 0 {
			t.Errorf("%s:%d: %d diagnostic(s) reported but %d more expected: %v", at.file, at.line, len(msgs), len(res), res)
		}
		delete(wants, at)
	}
	// Sorted for stable failure output.
	var missed []key
	for at := range wants {
		missed = append(missed, at)
	}
	sort.Slice(missed, func(i, j int) bool {
		if missed[i].file != missed[j].file {
			return missed[i].file < missed[j].file
		}
		return missed[i].line < missed[j].line
	})
	for _, at := range missed {
		t.Errorf("%s:%d: expected diagnostic matching %v, got none", at.file, at.line, wants[at])
	}
}

func diagKey(d lint.Diagnostic) key { return key{d.Pos.Filename, d.Pos.Line} }

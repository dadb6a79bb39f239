// Package lint is a suite of static analyzers that enforce the repo's
// determinism, purity, and hot-path invariants at compile time — the
// static complement of the dynamic gates (the recorded engine golden file,
// the -resume bit-identity tests, and the AllocsPerRun pins).
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer / Pass / Diagnostic, analysistest-style `// want` fixtures in
// internal/lint/linttest) but is built purely on the standard library's
// go/ast + go/types, because this repo builds with zero external module
// dependencies. If x/tools ever becomes a dependency the analyzers port
// mechanically: each Run takes a *Pass with the same field set.
//
// Analyzers (each has its own file and fixture set):
//
//   - detpure:    virtual-time packages must not read wall clocks, use the
//     global math/rand source, or start goroutines/selects.
//     Escape: //lint:wallclock.
//   - maprange:   no raw map iteration in determinism-relevant packages
//     unless the loop only collects keys that are sorted before
//     use. Escape: //lint:unordered.
//   - hotalloc:   functions marked //lint:hotpath must not allocate
//     (append/make/new, slice-or-map literals, closures,
//     goroutines) — appends into caller-owned parameter buffers
//     are the one allowed amortized pattern.
//   - addrstable: every field of the problem-parameter structs and the
//     protocol constants must be folded into the -resume
//     content address in matrix/persist.go, or listed there as
//     //lint:addrstable-exempt with a reason.
//   - obsnilsafe: exported pointer-receiver methods in internal/obs keep
//     their leading nil-receiver guard (telemetry handles are
//     documented nil-safe so disabled observability costs
//     nothing). Escape: //lint:nilok.
//   - unlinked:   every non-test function is linked into some main
//     package of the module, built without inlining. Escape:
//     an allowlist entry with a reason (RepoUnlinked).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the aiaclint
	// command line.
	Name string
	// Doc is the one-paragraph description printed by aiaclint -help.
	Doc string
	// Run performs the check on one type-checked package, reporting
	// findings through the pass.
	Run func(*Pass) error
}

// A Pass provides one analyzer run with one type-checked package and
// collects its diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags       []Diagnostic
	annotations map[string]map[int]string // filename -> line -> comment text
}

// A Diagnostic is one finding, positioned and sorted deterministically.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostics returns the findings sorted by position then message, so a
// lint run over the same tree prints identically every time (the linter
// holds itself to the determinism bar it enforces).
func (p *Pass) Diagnostics() []Diagnostic {
	d := append([]Diagnostic(nil), p.diags...)
	sort.Slice(d, func(i, j int) bool {
		a, b := d[i], d[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return d
}

// AnnotationTag is the comment prefix all lint escapes share.
const AnnotationTag = "//lint:"

// Annotated reports whether the source line of pos, or the line directly
// above it, carries a `//lint:<tag>` directive comment. This is the
// escape-hatch mechanism: an intentional exception is annotated where it
// happens, so the exception is visible in the diff that introduces it.
//
// Only directive-style comments count — the comment must *start* with
// `//lint:` (no space, like //go: directives). Prose that merely mentions
// an annotation ("... escape with //lint:wallclock") is not an escape.
func (p *Pass) Annotated(pos token.Pos, tag string) bool {
	if p.annotations == nil {
		p.annotations = map[string]map[int]string{}
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, AnnotationTag) {
						continue
					}
					cp := p.Fset.Position(c.Pos())
					m := p.annotations[cp.Filename]
					if m == nil {
						m = map[int]string{}
						p.annotations[cp.Filename] = m
					}
					m[cp.Line] += c.Text
				}
			}
		}
	}
	pp := p.Fset.Position(pos)
	want := AnnotationTag + tag
	for _, line := range []int{pp.Line, pp.Line - 1} {
		if strings.Contains(p.annotations[pp.Filename][line], want) {
			return true
		}
	}
	return false
}

// FuncDoc reports whether decl's doc comment (or the line above the decl)
// carries a `//lint:<tag>` directive (a doc line starting exactly with
// the directive, like //go: directives — prose mentions don't count).
func (p *Pass) FuncDoc(decl *ast.FuncDecl, tag string) bool {
	want := AnnotationTag + tag
	if decl.Doc != nil {
		for _, c := range decl.Doc.List {
			if strings.HasPrefix(c.Text, want) {
				return true
			}
		}
	}
	return p.Annotated(decl.Pos(), tag)
}

// PathIn reports whether the pass's package path equals one of the
// prefixes or sits beneath one (prefix + "/...").
func (p *Pass) PathIn(prefixes []string) bool {
	path := p.Pkg.Path()
	for _, pre := range prefixes {
		if path == pre || strings.HasPrefix(path, pre+"/") {
			return true
		}
	}
	return false
}

// calleeOf resolves the package-level function or method a call's function
// expression refers to, or nil.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// pkgPathOf returns the import path of a function's defining package
// ("" for builtins).
func pkgPathOf(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// Run type-checks nothing itself: the caller (cmd/aiaclint or linttest)
// loads packages and invokes each analyzer. Run wires one analyzer to one
// loaded package and returns its sorted diagnostics.
func Run(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	return pass.Diagnostics(), nil
}

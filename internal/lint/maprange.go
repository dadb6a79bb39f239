package lint

import (
	"go/ast"
	"go/types"
)

// maprange: no raw map iteration where order can leak into results.
//
// Go randomizes map iteration order on purpose. In most code that is a
// non-issue; in this repo a map range whose body's effects reach a
// Schedule call, a transport Send, or a report row makes two runs of the
// same sweep diverge — exactly the class of bug the engine golden file
// and the -resume bit-identity tests exist to catch, except those only
// catch it when the order happens to flip under test. This analyzer bans
// the pattern outright in the determinism-relevant packages.
//
// A map range is accepted only when it is order-insensitive by
// construction:
//
//   - the key-collection idiom: the loop body only appends keys (or
//     values) to function-local slices, and every one of those slices is
//     passed to a sort call (sort.* or slices.Sort*) later in the same
//     function, before any other use. The subsequent iteration over the
//     sorted slice is ordered, so the construction is deterministic.
//   - an explicit //lint:unordered annotation (same line or line above):
//     the author asserts the body commutes (e.g. a pure counter fold, a
//     max reduction) and takes responsibility in the diff.
//
// Everything else is a finding, including "just building another map" —
// a second map hides the order dependence without removing it.
func Maprange(paths ...string) *Analyzer {
	return &Analyzer{
		Name: "maprange",
		Doc:  "map iteration in determinism-relevant packages must sort keys before the body's effects can reach scheduling, sends, or report rows",
		Run: func(pass *Pass) error {
			if !pass.PathIn(paths) {
				return nil
			}
			for _, f := range pass.Files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					checkMapRanges(pass, fd)
				}
			}
			return nil
		},
	}
}

func checkMapRanges(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.Info.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if pass.Annotated(rs.Pos(), "unordered") {
			return true
		}
		if collectsIntoSortedSlices(pass, fd, rs) {
			return true
		}
		pass.Reportf(rs.Pos(), "map iteration order is random; collect keys into a slice and sort before use, or annotate %sunordered if the body commutes", AnnotationTag)
		return true
	})
}

// collectsIntoSortedSlices reports whether the range body only appends to
// function-local slices that are each sorted later in fd, before any
// other use.
func collectsIntoSortedSlices(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt) bool {
	var collected []types.Object
	for _, stmt := range rs.Body.List {
		obj := appendTarget(pass, stmt)
		if obj == nil {
			return false
		}
		collected = append(collected, obj)
	}
	if len(collected) == 0 {
		return false // empty body: treat as suspicious rather than clever
	}
	for _, obj := range collected {
		if !sortedAfter(pass, fd, rs, obj) {
			return false
		}
	}
	return true
}

// appendTarget returns the local slice object if stmt has the exact shape
// `x = append(x, ...)`, else nil.
func appendTarget(pass *Pass, stmt ast.Stmt) types.Object {
	as, ok := stmt.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	lhs, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	if fn, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || fn.Name != "append" {
		return nil
	} else if _, isBuiltin := pass.Info.Uses[fn].(*types.Builtin); !isBuiltin {
		return nil
	}
	if len(call.Args) == 0 {
		return nil
	}
	first, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok || first.Name != lhs.Name {
		return nil
	}
	return pass.Info.Uses[lhs]
}

// sortedAfter reports whether obj's first use after the range loop is as
// an argument to a sort call (sort.Strings, sort.Slice, slices.Sort...).
func sortedAfter(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt, obj types.Object) bool {
	if obj == nil {
		return false
	}
	sorted := false
	done := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if done || n == nil || n.Pos() <= rs.End() {
			return !done
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn := calleeOf(pass.Info, n); fn != nil {
				pkg := pkgPathOf(fn)
				if pkg == "sort" || pkg == "slices" {
					for _, arg := range n.Args {
						if usesObj(pass, arg, obj) {
							sorted = true
							done = true
							return false
						}
					}
				}
			}
		case *ast.Ident:
			if pass.Info.Uses[n] == obj {
				// First post-loop use is not a sort argument.
				done = true
				return false
			}
		}
		return true
	})
	return sorted
}

func usesObj(pass *Pass, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

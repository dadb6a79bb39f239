package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hotalloc: functions annotated //lint:hotpath must not allocate.
//
// The kernel ladder (KERNELS.md) and the AllocsPerRun gates of
// internal/bench (alloc_test.go, msgpath_test.go — that package is only
// tests) prove the numeric hot path allocates nothing in steady state —
// dynamically, for the shapes the tests happen to run. This analyzer pins
// the same property structurally: a function marked //lint:hotpath on its
// declaration must not contain
//
//   - the allocating builtins append, make, new
//   - slice or map composite literals ([]T{...}, map[K]V{...}) and
//     &T{...} (which escape analysis may or may not keep on the stack —
//     the hot path does not gamble)
//   - function literals (closure headers allocate when captures escape;
//     hot loops hoist their closures to construction time)
//   - go statements (a goroutine per call is an allocation and a
//     scheduler round-trip)
//
// One amortized pattern is allowed: append whose destination is a
// parameter of the function (`buf = append(buf, ...)` where buf is a
// caller-owned buffer) — the caller amortizes growth, as in
// transport.AppendMsg. Fixed-size local arrays (`var buf [64]float64`)
// are stack storage and pass.
//
// The annotation is opt-in per function, so deliberately allocating code
// (a step that spawns a goroutine per row chunk, say) simply stays
// unannotated; annotating it is a finding, which is the point: the mark is
// a promise the compiler now keeps. Functions declared without a body —
// the assembly primitives of internal/sparse — have nothing to check and
// are skipped.
func Hotalloc() *Analyzer {
	return &Analyzer{
		Name: "hotalloc",
		Doc:  "functions marked //lint:hotpath must not allocate (append/make/new, slice/map/&composite literals, closures, goroutines); appends into caller-owned parameter buffers are the one amortized exception",
		Run: func(pass *Pass) error {
			for _, f := range pass.Files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil || !pass.FuncDoc(fd, "hotpath") {
						continue
					}
					checkHotFunc(pass, fd)
				}
			}
			return nil
		},
	}
}

func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	params := map[types.Object]bool{}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			params[pass.Info.Defs[name]] = true
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotCall(pass, fd, n, params)
		case *ast.CompositeLit:
			switch pass.Info.TypeOf(n).Underlying().(type) {
			case *types.Slice, *types.Map:
				pass.Reportf(n.Pos(), "%s is %shotpath but builds a %s literal (heap allocation); use a fixed-size array or caller-provided storage", fd.Name.Name, AnnotationTag, typeKind(pass.Info.TypeOf(n)))
			}
		case *ast.UnaryExpr:
			// &T{...}: escape analysis decides, the hot path must not.
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "%s is %shotpath but takes the address of a composite literal (escapes to the heap under any capture)", fd.Name.Name, AnnotationTag)
				}
			}
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "%s is %shotpath but defines a closure (captures allocate when they escape); hoist it out of the hot function", fd.Name.Name, AnnotationTag)
			return false
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "%s is %shotpath but starts a goroutine", fd.Name.Name, AnnotationTag)
		}
		return true
	})
}

func checkHotCall(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, params map[types.Object]bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return
	}
	if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return
	}
	switch id.Name {
	case "append":
		if len(call.Args) > 0 {
			if first, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && params[pass.Info.Uses[first]] {
				return // caller-owned buffer: amortized, allowed
			}
		}
		pass.Reportf(call.Pos(), "%s is %shotpath but appends to non-parameter storage (growth allocates); thread a caller-owned buffer through instead", fd.Name.Name, AnnotationTag)
	case "make", "new":
		pass.Reportf(call.Pos(), "%s is %shotpath but calls %s (heap allocation); allocate at construction time and reuse", fd.Name.Name, AnnotationTag, id.Name)
	}
}

func typeKind(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return "composite"
}

package lint

import (
	"go/ast"
	"go/types"
)

// detpure: the virtual-time path must be a pure function of its inputs.
//
// Every simulated result in this repo is reproducible because the engine
// advances a virtual clock, draws randomness from per-run seeded streams,
// and schedules work through the DES — never through the Go scheduler. One
// stray time.Now, one global rand.Intn, one free-running goroutine, and
// the recorded engine golden file, the -resume content addresses, and the
// committed BENCH baselines all silently rot.
// This analyzer makes that contract a compile-time property of the
// packages on the virtual-time path.
//
// Banned in those packages:
//
//   - wall-clock reads and wall-clock timers: time.Now, time.Since,
//     time.Until, time.Sleep, time.After, time.Tick, time.NewTimer,
//     time.NewTicker, time.AfterFunc. (Pure conversions — time.Duration
//     arithmetic, d.Seconds() — are fine and common: virtual time is
//     *denominated* in time.Duration.)
//   - the global math/rand source: any package-level rand function that
//     draws from it (rand.Int, rand.Intn, rand.Float64, rand.Perm,
//     rand.Shuffle, rand.Seed, ...). Constructing owned seeded streams
//     (rand.New, rand.NewSource) stays legal — that is the idiom the
//     engine uses.
//   - starting goroutines and select statements: virtual-time code runs
//     under the DES, which is itself a plain event loop on its caller's
//     goroutine; racing real goroutines against it reintroduces the
//     scheduler nondeterminism the design removed.
//
// Escape hatch: a site annotated //lint:wallclock (same line or the line
// above) is an acknowledged wall-clock touch — e.g. a watchdog guard that
// deliberately measures host time. The annotation is the audit trail.
// The other accepted use is the helper goroutine of aiac's overlapped
// Updates (internal/aiac/overlap.go), whose every result the event loop
// joins before it reads the rank's state, so no scheduling reaches the DES.
type DetpureConfig struct {
	// Paths are the package-path prefixes on the virtual-time path.
	Paths []string
}

// wallclockFuncs are the banned time package entry points: everything
// that reads or arms the host clock.
var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// globalRandOK are the math/rand package-level functions that do NOT
// touch the global source: constructors for owned, seeded streams.
var globalRandOK = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

// Detpure returns the analyzer configured for the given virtual-time
// package set.
func Detpure(cfg DetpureConfig) *Analyzer {
	return &Analyzer{
		Name: "detpure",
		Doc:  "virtual-time packages must not read wall clocks, draw from the global math/rand source, or start goroutines/selects",
		Run: func(pass *Pass) error {
			if !pass.PathIn(cfg.Paths) {
				return nil
			}
			for _, f := range pass.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						detpureIdent(pass, n)
					case *ast.GoStmt:
						if !pass.Annotated(n.Pos(), "wallclock") {
							pass.Reportf(n.Pos(), "goroutine started on the virtual-time path (the DES is the scheduler here); annotate %swallclock if it is intentional", AnnotationTag)
						}
					case *ast.SelectStmt:
						if !pass.Annotated(n.Pos(), "wallclock") {
							pass.Reportf(n.Pos(), "select on the virtual-time path races the Go scheduler against the DES; use des primitives or annotate %swallclock", AnnotationTag)
						}
					}
					return true
				})
			}
			return nil
		},
	}
}

// detpureIdent flags one identifier if it resolves to a banned time or
// math/rand package-level function. Checking uses (not just calls) also
// catches passing time.Now as a clock callback.
func detpureIdent(pass *Pass, id *ast.Ident) {
	obj, ok := pass.Info.Uses[id]
	if !ok {
		return
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return // methods (rng.Intn, t.Sub) operate on owned values
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallclockFuncs[fn.Name()] && !pass.Annotated(id.Pos(), "wallclock") {
			pass.Reportf(id.Pos(), "wall clock on the virtual-time path: time.%s breaks sim determinism (virtual time comes from the DES); annotate %swallclock if this guard is intentional", fn.Name(), AnnotationTag)
		}
	case "math/rand", "math/rand/v2":
		if !globalRandOK[fn.Name()] && !pass.Annotated(id.Pos(), "wallclock") {
			pass.Reportf(id.Pos(), "global math/rand source on the virtual-time path: rand.%s is not seeded per run; draw from an owned rand.New(rand.NewSource(seed)) stream", fn.Name())
		}
	}
}

package gmres_test

import (
	"testing"

	"aiac/internal/gmres"
	"aiac/internal/problems"
	"aiac/internal/sparse"
)

// A block-GMRES Update solves its block on the rank's reused Krylov
// workspace and allocates nothing after the first.
func TestGMRESInnerSolveAllocs(t *testing.T) {
	prob := problems.NewLinearGMRES(4000, 12, 0.85, 7)
	bounds := prob.PartitionBounds(8)
	x := prob.InitialVector()
	prob.Update(0, bounds, x) // warm-up builds scratch and the Krylov workspace
	if n := testing.AllocsPerRun(10, func() {
		prob.Update(0, bounds, x)
	}); n != 0 {
		t.Errorf("block-GMRES update allocates %.0f per call; want 0", n)
	}
}

// SolveWith on a reused workspace is allocation-free even across restarts
// (the Krylov basis is the big per-solve cost Solve used to pay).
func TestGMRESSolveWithAllocs(t *testing.T) {
	a, b, _ := sparse.NewSystem(600, 8, 0.9, 3)
	apply := func(dst, v []float64) { a.MulVec(dst, v) }
	x := make([]float64, 600)
	var ws gmres.Workspace
	p := gmres.Params{Tol: 1e-10, Restart: 10, MaxIters: 600}
	if _, err := gmres.SolveWith(&ws, apply, b, x, p, 0); err != nil {
		t.Fatalf("warm-up solve: %v", err)
	}
	if n := testing.AllocsPerRun(5, func() {
		for i := range x {
			x[i] = 0
		}
		if _, err := gmres.SolveWith(&ws, apply, b, x, p, 0); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("SolveWith allocates %.0f per solve; want 0", n)
	}
}

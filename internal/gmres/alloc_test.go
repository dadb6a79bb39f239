package gmres_test

import (
	"testing"

	"aiac/internal/gmres"
	"aiac/internal/sparse"
)

// SolveWith on a reused workspace is allocation-free even across restarts
// (the Krylov basis is the big per-solve cost).
func TestGMRESSolveWithAllocs(t *testing.T) {
	a, b, _, _ := sparse.NewSystemSum(600, 8, 0.9, 3)
	apply := func(dst, v []float64) { a.RowRangeMulVec(0, a.N, dst, v) }
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

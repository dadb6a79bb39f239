package aiac_test

import (
	"math"
	"testing"

	"aiac/internal/aiac"
	"aiac/internal/chem"
	"aiac/internal/cluster"
	"aiac/internal/des"
	"aiac/internal/env/pm2"
	"aiac/internal/gmres"
	"aiac/internal/problems"
)

// nanAfter poisons the rank making the k-th Update, and every later one:
// NaN is written over its block before the Update runs, and the residual
// is what the problem itself makes of that.
type nanAfter struct {
	aiac.Problem
	k, calls int
}

func (p *nanAfter) Update(rank int, bounds []int, x []float64) (float64, float64) {
	if p.calls++; p.calls >= p.k {
		for i := bounds[rank]; i < bounds[rank+1]; i++ {
			x[i] = math.NaN()
		}
	}
	return p.Problem.Update(rank, bounds, x)
}

// A simulated chem step whose data turns NaN ends at once, sync and
// async: strip Newton reports NaN for the poisoned strip, the rank exits,
// and the run ends StopNonFinite instead of iterating to its cap (once a
// simulated chem cell with NaN data ran for minutes).
func TestNonFiniteChemStepEnds(t *testing.T) {
	for _, mode := range []aiac.Mode{aiac.Sync, aiac.Async} {
		t.Run(mode.String(), func(t *testing.T) {
			grid := cluster.LocalHeterogeneous(des.New(), 4)
			env := pm2.MustNew(grid, pm2.Sparse, nil)
			p := chem.New(8, 8)
			step := problems.NewChemStep(p, p.InitialState(), 180, 180, gmres.Params{Tol: 1e-6, Restart: 30})
			rep := aiac.Run(grid, env, &nanAfter{Problem: step, k: 6}, aiac.Config{Mode: mode, Eps: 1e-6})
			if rep.Reason != aiac.StopNonFinite {
				t.Fatalf("reason = %s, want %s", rep.Reason, aiac.StopNonFinite)
			}
			if n := rep.TotalIters(); n > 40 {
				t.Fatalf("%d iterations after the data turned NaN", n)
			}
		})
	}
}

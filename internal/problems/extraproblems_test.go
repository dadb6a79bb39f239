package problems_test

import (
	"math"
	"testing"

	"aiac/internal/aiac"
	"aiac/internal/cluster"
	"aiac/internal/des"
	"aiac/internal/env/mpi"
	"aiac/internal/env/pm2"
	"aiac/internal/la"
	"aiac/internal/netsim"
	"aiac/internal/problems"
)

// The block-GMRES multisplitting must converge to the generated system's
// known solution under asynchronous iterations.
func TestLinearGMRESConvergesToTruth(t *testing.T) {
	sim := des.New()
	grid := cluster.Homogeneous(sim, 4, cluster.P4_2400, netsim.Ethernet100)
	env := pm2.MustNew(grid, pm2.Sparse, nil)
	prob := problems.NewLinearGMRES(3000, 8, 0.6, 1)
	rep := aiac.Run(grid, env, prob, aiac.Config{Mode: aiac.Async, Eps: 1e-7})
	if rep.Reason != aiac.StopConverged {
		t.Fatalf("reason = %s", rep.Reason)
	}
	if d := la.MaxNormDiff(rep.X, prob.XTrue); d > 1e-5 {
		t.Fatalf("solution error %v", d)
	}
	// The heavier local solver must need far fewer outer iterations than
	// the gradient version of the same system (hundreds, not tens of
	// thousands on this grid).
	for r, n := range rep.ItersPerRank {
		if n > 20000 {
			t.Fatalf("rank %d took %d outer iterations — inner solves not doing their job", r, n)
		}
	}
}

// The reaction problem's manufactured truth must be recovered in both
// modes, and the per-rank dependency lists must be the single ghost points.
func TestReactionConvergesToTruth(t *testing.T) {
	for _, mode := range []aiac.Mode{aiac.Async, aiac.Sync} {
		t.Run(mode.String(), func(t *testing.T) {
			sim := des.New()
			grid := cluster.Homogeneous(sim, 4, cluster.P4_2400, netsim.Ethernet100)
			var env aiac.Env
			if mode == aiac.Sync {
				env = mpi.MustNew(grid, nil)
			} else {
				env = pm2.MustNew(grid, pm2.Sparse, nil)
			}
			prob := problems.NewReaction(3000, 1, 1)
			rep := aiac.Run(grid, env, prob, aiac.Config{Mode: mode, Eps: 1e-9})
			if rep.Reason != aiac.StopConverged {
				t.Fatalf("reason = %s", rep.Reason)
			}
			if d := la.MaxNormDiff(rep.X, prob.XTrue); d > 1e-6 {
				t.Fatalf("solution error %v", d)
			}
		})
	}
}

func TestReactionDeps(t *testing.T) {
	prob := problems.NewReaction(100, 1, 7)
	bounds := prob.PartitionBounds(4)
	for rank := 0; rank < 4; rank++ {
		deps := prob.DepsFor(rank, bounds)
		want := 2
		if rank == 0 || rank == 3 {
			want = 1
		}
		if len(deps) != want {
			t.Fatalf("rank %d: %d deps, want %d", rank, len(deps), want)
		}
		for _, d := range deps {
			if d.Len() != 1 {
				t.Fatalf("rank %d: ghost segment %+v wider than one point", rank, d)
			}
		}
	}
}

// Distinct seeds must manufacture distinct systems (the repetition axis).
func TestReactionSeedsDiffer(t *testing.T) {
	a := problems.NewReaction(500, 1, 1)
	b := problems.NewReaction(500, 1, 2)
	if la.MaxNormDiff(a.XTrue, b.XTrue) == 0 {
		t.Fatal("seeds 1 and 2 produced identical manufactured solutions")
	}
}

// A stagnated inner solve is not a failed run: with the inner GMRES capped
// at one iteration every block solve stagnates, and the ranks must keep
// iterating to their cap, sync and async, instead of ending on a
// non-finite residual.
func TestLinearGMRESStagnationKeepsIterating(t *testing.T) {
	for _, mode := range []aiac.Mode{aiac.Sync, aiac.Async} {
		t.Run(mode.String(), func(t *testing.T) {
			sim := des.New()
			grid := cluster.Homogeneous(sim, 4, cluster.P4_2400, netsim.Ethernet100)
			var env aiac.Env
			if mode == aiac.Sync {
				env = mpi.MustNew(grid, nil)
			} else {
				env = pm2.MustNew(grid, pm2.Sparse, nil)
			}
			prob := problems.NewLinearGMRES(600, 8, 0.6, 1)
			prob.Gmres.MaxIters = 1
			rep := aiac.Run(grid, env, prob, aiac.Config{Mode: mode, Eps: 1e-7, MaxIters: 40})
			if rep.Reason != aiac.StopIterCap {
				t.Fatalf("reason = %s, want %s", rep.Reason, aiac.StopIterCap)
			}
		})
	}
	// A block solve that stagnates on NaN data reports NaN, which ends
	// the solve.
	prob := problems.NewLinearGMRES(600, 8, 0.6, 1)
	x := prob.InitialVector()
	for i := range x {
		x[i] = math.NaN()
	}
	if res, _ := prob.Update(0, prob.PartitionBounds(4), x); !math.IsNaN(res) {
		t.Fatalf("a block solve on NaN data reports %v, want NaN", res)
	}
}

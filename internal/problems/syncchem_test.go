package problems

import (
	"math"
	"testing"

	"aiac/internal/aiac"
	"aiac/internal/chem"
	"aiac/internal/cluster"
	"aiac/internal/des"
	"aiac/internal/env/envcore"
	"aiac/internal/gmres"
	"aiac/internal/netsim"
	"aiac/internal/newton"
)

// The classical synchronous parallelization (global Newton + distributed
// GMRES) must match the sequential full-Newton reference: unlike
// multisplitting, its inner solve is the *true* global linear system, so
// agreement should be tight.
func TestSyncGlobalMatchesSequential(t *testing.T) {
	const nx, nz = 10, 12
	const h = 180.0
	const steps = 2

	pRef := chem.New(nx, nz)
	yRef := pRef.InitialState()
	for s := 1; s <= steps; s++ {
		yOld := make([]float64, len(yRef))
		copy(yOld, yRef)
		sys := chem.NewEulerSystem(pRef, yOld, h, float64(s)*h)
		if _, _, err := newton.Solve(sys, yRef, 1e-10, 50, gmres.Params{Tol: 1e-10, Restart: 40}); err != nil {
			t.Fatal(err)
		}
	}

	sim := des.New()
	grid := cluster.Homogeneous(sim, 4, cluster.P4_2400, netsim.Ethernet100)
	env := envcore.MustNew(grid, envcore.Middleware("mpi", false))
	p := chem.New(nx, nz)
	run := RunChemSyncGlobal(grid, env, p, p.InitialState(), h, steps*h,
		gmres.Params{Tol: 1e-10, Restart: 40}, 1e-10, 50)
	if !run.AllConverged() {
		t.Fatal("sync global did not converge")
	}
	if len(run.Steps) != steps {
		t.Fatalf("steps = %d", len(run.Steps))
	}
	for i := range yRef {
		scale := math.Abs(yRef[i]) + 1
		if d := math.Abs(run.Y[i]-yRef[i]) / scale; d > 1e-7 {
			t.Fatalf("sync global differs from sequential at %d: %v vs %v (rel %v)",
				i, run.Y[i], yRef[i], d)
		}
	}
}

// All ranks iterate in lockstep: identical Newton iteration counts.
func TestSyncGlobalLockstep(t *testing.T) {
	sim := des.New()
	grid := cluster.LocalHeterogeneous(sim, 3)
	env := envcore.MustNew(grid, envcore.Middleware("mpi", false))
	p := chem.New(8, 9)
	run := RunChemSyncGlobal(grid, env, p, p.InitialState(), 180, 180,
		gmres.Params{Tol: 1e-8, Restart: 30}, 1e-8, 50)
	if !run.AllConverged() {
		t.Fatal("did not converge")
	}
	rep := run.Steps[0]
	for r := 1; r < len(rep.ItersPerRank); r++ {
		if rep.ItersPerRank[r] != rep.ItersPerRank[0] {
			t.Fatalf("lockstep violated: %v", rep.ItersPerRank)
		}
	}
	if rep.Elapsed <= 0 {
		t.Fatal("no time elapsed")
	}
}

// The global-GMRES sync version must be slower than the asynchronous
// multisplitting version on a distant grid (the Table 3 relationship).
func TestSyncGlobalSlowerThanAsyncOnDistantGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	p1 := chem.New(24, 24)
	simS := des.New()
	gridS := cluster.ThreeSiteEthernet(simS, 6)
	envS := envcore.MustNew(gridS, envcore.Middleware("mpi", false))
	runS := RunChemSyncGlobal(gridS, envS, p1, p1.InitialState(), 180, 360,
		gmres.Params{Tol: 1e-6, Restart: 30}, 1e-6, 50)

	p2 := chem.New(24, 24)
	simA := des.New()
	gridA := cluster.ThreeSiteEthernet(simA, 6)
	envA := envcore.MustNew(gridA, envcore.Middleware("madmpi", false))
	runA := RunChem(gridA, envA, p2, p2.InitialState(), 180, 360,
		gmres.Params{Tol: 1e-6, Restart: 30},
		aiac.Config{Mode: aiac.Async, Eps: 1e-6})
	if !runS.AllConverged() || !runA.AllConverged() {
		t.Fatalf("convergence: sync %v async %v", runS.AllConverged(), runA.AllConverged())
	}
	if runA.Elapsed >= runS.Elapsed {
		t.Fatalf("async (%v) not faster than sync global GMRES (%v)", runA.Elapsed, runS.Elapsed)
	}
}

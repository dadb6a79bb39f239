package problems

import (
	"math"
	"reflect"
	"testing"

	"aiac/internal/aiac"
	"aiac/internal/chem"
	"aiac/internal/cluster"
	"aiac/internal/des"
	"aiac/internal/env/envcore"
	"aiac/internal/gmres"
	"aiac/internal/la"
	"aiac/internal/netsim"
	"aiac/internal/newton"
)

func TestLinearDepsExcludeOwnBlock(t *testing.T) {
	l := NewLinear(1000, 10, 0.8, 1)
	bounds := l.PartitionBounds(4)
	for r := 0; r < 4; r++ {
		for _, d := range l.DepsFor(r, bounds) {
			if d.Lo < bounds[r+1] && d.Hi > bounds[r] {
				t.Fatalf("rank %d dep %+v overlaps own block [%d,%d)", r, d, bounds[r], bounds[r+1])
			}
			if d.Lo >= d.Hi || d.Lo < 0 || d.Hi > l.Size() {
				t.Fatalf("invalid dep %+v", d)
			}
		}
	}
}

func TestLinearUpdateReducesResidual(t *testing.T) {
	l := NewLinear(500, 8, 0.7, 2)
	bounds := l.PartitionBounds(2)
	x := l.InitialVector()
	var prev float64 = math.Inf(1)
	for k := 0; k < 50; k++ {
		r0, f0 := l.Update(0, bounds, x)
		r1, _ := l.Update(1, bounds, x)
		if f0 <= 0 {
			t.Fatal("no flops charged")
		}
		res := math.Max(r0, r1)
		if k > 5 && res > prev*1.5 {
			t.Fatalf("residual rising: %v -> %v at iter %d", prev, res, k)
		}
		prev = res
	}
	if prev > 1e-4 {
		t.Fatalf("residual after 50 sweeps: %v", prev)
	}
}

// The linear problem's generated truth is recovered in both modes.
func TestLinearConvergesToTruth(t *testing.T) {
	for _, mode := range []aiac.Mode{aiac.Sync, aiac.Async} {
		t.Run(mode.String(), func(t *testing.T) {
			sim := des.New()
			grid := cluster.Homogeneous(sim, 4, cluster.P4_2400, netsim.Ethernet100)
			var env aiac.Env
			if mode == aiac.Sync {
				env = envcore.MustNew(grid, envcore.Middleware("mpi", true))
			} else {
				env = envcore.MustNew(grid, envcore.Middleware("pm2", true))
			}
			prob := NewLinear(3000, 8, 0.6, 1)
			rep := aiac.Run(grid, env, prob, aiac.Config{Mode: mode, Eps: 1e-7})
			if rep.Reason != aiac.StopConverged {
				t.Fatalf("reason = %s", rep.Reason)
			}
			if d := la.MaxNormDiff(rep.X, prob.XTrue); d > 1e-4 {
				t.Fatalf("solution error %v", d)
			}
		})
	}
}

// Distinct seeds generate distinct systems (the repetition axis) around
// the one known solution x*_i = 1 + i mod 3, and one seed the same system
// every time.
func TestLinearSeedsDiffer(t *testing.T) {
	a, b, a2 := NewLinear(500, 6, 0.8, 1), NewLinear(500, 6, 0.8, 2), NewLinear(500, 6, 0.8, 1)
	if la.MaxNormDiff(a.B, b.B) == 0 {
		t.Fatal("seeds 1 and 2 generated identical right-hand sides")
	}
	if la.MaxNormDiff(a.XTrue, b.XTrue) != 0 {
		t.Fatal("seeds 1 and 2 generated different known solutions")
	}
	if la.MaxNormDiff(a.B, a2.B) != 0 || !reflect.DeepEqual(a.A, a2.A) {
		t.Fatal("seed 1 generated two different systems")
	}
}

// A warmed linear Update, on the whole vector or on the rank's window,
// runs on the rank's reused scratch and allocates nothing.
func TestLinearUpdateAllocs(t *testing.T) {
	l := NewLinear(4000, 12, 0.85, 7)
	bounds := l.PartitionBounds(8)
	const rank = 3
	whole := l.InitialVector()
	var win []float64
	for _, w := range l.Window(rank, bounds) {
		win = append(win, whole[w.Lo:w.Hi]...)
	}
	if len(win) >= len(whole) {
		t.Fatal("rank 3's window is the whole vector: the window case tests nothing new")
	}
	for _, tc := range []struct {
		name string
		x    []float64
	}{{"whole", whole}, {"window", win}} {
		t.Run(tc.name, func(t *testing.T) {
			l.Update(rank, bounds, tc.x) // warm-up builds scratch (and the window's shifts)
			if n := testing.AllocsPerRun(10, func() {
				l.Update(rank, bounds, tc.x)
			}); n != 0 {
				t.Errorf("linear update allocates %.0f per call; want 0", n)
			}
		})
	}
}

func TestChemStepDepsAreNeighbourRows(t *testing.T) {
	p := chem.New(8, 12)
	y0 := p.InitialState()
	cs := NewChemStep(p, y0, 180, 180, gmres.Params{})
	bounds := cs.PartitionBounds(3)
	// Middle rank depends on exactly two ghost rows.
	deps := cs.DepsFor(1, bounds)
	if len(deps) != 2 {
		t.Fatalf("middle rank deps = %v", deps)
	}
	rowBytes := 2 * p.NX
	for _, d := range deps {
		if d.Len() != rowBytes {
			t.Fatalf("dep %+v is not one grid row (%d values)", d, rowBytes)
		}
	}
	// Edge ranks depend on one row only.
	if len(cs.DepsFor(0, bounds)) != 1 || len(cs.DepsFor(2, bounds)) != 1 {
		t.Fatal("edge ranks should have exactly one ghost row")
	}
}

// The distributed asynchronous chemical solve must match the sequential
// full-Newton reference.
func TestChemRunMatchesSequential(t *testing.T) {
	const nx, nz = 8, 12
	const h = 180.0
	const steps = 2

	// Sequential reference.
	pRef := chem.New(nx, nz)
	yRef := pRef.InitialState()
	for s := 1; s <= steps; s++ {
		yOld := make([]float64, len(yRef))
		copy(yOld, yRef)
		sys := chem.NewEulerSystem(pRef, yOld, h, float64(s)*h)
		if _, _, err := newton.Solve(sys, yRef, 1e-10, 50, gmres.Params{Tol: 1e-10, Restart: 30}); err != nil {
			t.Fatal(err)
		}
	}

	// Distributed AIAC over 3 ranks.
	sim := des.New()
	grid := cluster.Homogeneous(sim, 3, cluster.P4_2400, netsim.Ethernet100)
	env := envcore.MustNew(grid, envcore.Middleware("pm2", false))
	p := chem.New(nx, nz)
	run := RunChem(grid, env, p, p.InitialState(), h, steps*h,
		gmres.Params{Tol: 1e-10, Restart: 30},
		aiac.Config{Mode: aiac.Async, Eps: 1e-9})
	if !run.AllConverged() {
		t.Fatalf("not all steps converged: %d steps", len(run.Steps))
	}
	if len(run.Steps) != steps {
		t.Fatalf("steps = %d", len(run.Steps))
	}
	for i := range yRef {
		scale := math.Abs(yRef[i]) + 1
		if d := math.Abs(run.Y[i]-yRef[i]) / scale; d > 1e-5 {
			t.Fatalf("distributed result differs at %d: %v vs %v (rel %v)", i, run.Y[i], yRef[i], d)
		}
	}
	if run.Elapsed <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

// Synchronous SISC chem run agrees too (and uses equal iteration counts).
func TestChemRunSyncMode(t *testing.T) {
	const nx, nz = 8, 9
	sim := des.New()
	grid := cluster.Homogeneous(sim, 3, cluster.P4_1700, netsim.Ethernet100)
	env := envcore.MustNew(grid, envcore.Middleware("mpi", false))
	p := chem.New(nx, nz)
	run := RunChem(grid, env, p, p.InitialState(), 180, 360,
		gmres.Params{Tol: 1e-10, Restart: 30},
		aiac.Config{Mode: aiac.Sync, Eps: 1e-9})
	if !run.AllConverged() {
		t.Fatal("sync chem run did not converge")
	}
	for _, rep := range run.Steps {
		for r := 1; r < len(rep.ItersPerRank); r++ {
			if rep.ItersPerRank[r] != rep.ItersPerRank[0] {
				t.Fatalf("sync iters unequal: %v", rep.ItersPerRank)
			}
		}
	}
	if chem.MinConcentration(run.Y) < -1e-6 {
		t.Fatalf("unphysical concentrations: min %v", chem.MinConcentration(run.Y))
	}
}

// Async must beat sync for the chemical problem on a distant grid (the
// Table 3 headline).
func TestChemAsyncBeatsSyncOnDistantGrid(t *testing.T) {
	runMode := func(mode aiac.Mode) des.Time {
		sim := des.New()
		// The Table 3 configuration (reduced scale): 12 processors over
		// three distant sites.
		grid := cluster.ThreeSiteEthernet(sim, 12)
		var env aiac.Env
		if mode == aiac.Sync {
			env = envcore.MustNew(grid, envcore.Middleware("mpi", false))
		} else {
			env = envcore.MustNew(grid, envcore.Middleware("madmpi", false))
		}
		p := chem.New(48, 48)
		run := RunChem(grid, env, p, p.InitialState(), 180, 360,
			gmres.Params{Tol: 1e-6, Restart: 30},
			aiac.Config{Mode: mode, Eps: 1e-6})
		if !run.AllConverged() {
			t.Fatalf("%v chem run did not converge", mode)
		}
		return run.Elapsed
	}
	async := runMode(aiac.Async)
	sync := runMode(aiac.Sync)
	if async >= sync {
		t.Fatalf("async (%v) not faster than sync (%v)", async, sync)
	}
}

func TestChemRunAggregates(t *testing.T) {
	r := &ChemRun{Steps: []*aiac.Report{
		{ItersPerRank: []int{2, 3}, Reason: aiac.StopConverged},
		{ItersPerRank: []int{4, 1}, Reason: aiac.StopConverged},
	}}
	if !r.AllConverged() {
		t.Fatal("AllConverged wrong")
	}
	r.Steps[1].Reason = aiac.StopIterCap
	if r.AllConverged() {
		t.Fatal("AllConverged should be false with a capped step")
	}
}

func TestLinearName(t *testing.T) {
	l := NewLinear(100, 5, 0.5, 1)
	if l.Name() == "" || l.Size() != 100 {
		t.Fatal("bad name/size")
	}
	p := chem.New(5, 5)
	cs := NewChemStep(p, p.InitialState(), 180, 180, gmres.Params{})
	if cs.Name() == "" || cs.Size() != p.N() {
		t.Fatal("bad chem name/size")
	}
}

// A strip Newton iteration on NaN data reports a NaN residual — which
// ends the solve — while any other failed inner solve reports the largest
// finite residual, so the rank keeps iterating.
func TestNewtonResidualOnFailure(t *testing.T) {
	p := chem.New(8, 8)
	step := NewChemStep(p, p.InitialState(), 180, 180, gmres.Params{Tol: 1e-6, Restart: 30})
	bounds := step.PartitionBounds(2)
	x := step.InitialVector()
	for i := bounds[0]; i < bounds[1]; i++ {
		x[i] = math.NaN()
	}
	if res, _ := step.Update(0, bounds, x); !math.IsNaN(res) {
		t.Errorf("chem step on NaN data: residual %v, want NaN", res)
	}
	y := step.InitialVector()
	ghost := step.DepsFor(1, bounds)[0]
	for i := ghost.Lo; i < ghost.Hi; i++ {
		y[i] = math.NaN()
	}
	if res, _ := step.Update(1, bounds, y); !math.IsNaN(res) {
		t.Errorf("chem step on a NaN ghost row [%d, %d): residual %v, want NaN", ghost.Lo, ghost.Hi, res)
	}
	if got := newtonResidual(0.5, gmres.ErrStagnated); got != math.MaxFloat64 {
		t.Errorf("a failed inner solve on finite data reports %v, want the largest finite residual", got)
	}
	if got := newtonResidual(0.5, nil); got != 0.5 {
		t.Errorf("a successful iteration reports %v, want its own 0.5", got)
	}
}

// A stagnated inner solve is not a failed run: with the inner GMRES capped
// at one iteration every strip Newton iteration stagnates, reports the
// largest finite residual, and the ranks keep iterating to their cap, sync
// and async, instead of ending on a non-finite residual. One that
// stagnates on NaN data reports NaN, which ends the solve.
func TestChemStepStagnationKeepsIterating(t *testing.T) {
	stalled := gmres.Params{Tol: 1e-6, Restart: 30, MaxIters: 1}
	p := chem.New(8, 8)
	for _, mode := range []aiac.Mode{aiac.Sync, aiac.Async} {
		t.Run(mode.String(), func(t *testing.T) {
			sim := des.New()
			grid := cluster.Homogeneous(sim, 4, cluster.P4_2400, netsim.Ethernet100)
			var env aiac.Env
			if mode == aiac.Sync {
				env = envcore.MustNew(grid, envcore.Middleware("mpi", false))
			} else {
				env = envcore.MustNew(grid, envcore.Middleware("pm2", true))
			}
			step := NewChemStep(p, p.InitialState(), 180, 180, stalled)
			rep := aiac.Run(grid, env, step, aiac.Config{Mode: mode, Eps: 1e-7, MaxIters: 40})
			if rep.Reason != aiac.StopIterCap {
				t.Fatalf("reason = %s, want %s", rep.Reason, aiac.StopIterCap)
			}
		})
	}
	step := NewChemStep(p, p.InitialState(), 180, 180, stalled)
	bounds := step.PartitionBounds(4)
	if res, _ := step.Update(0, bounds, step.InitialVector()); res != math.MaxFloat64 {
		t.Errorf("a stagnated strip solve reports %v, want the largest finite residual", res)
	}
	x := step.InitialVector()
	for i := range x {
		x[i] = math.NaN()
	}
	if res, _ := step.Update(0, bounds, x); !math.IsNaN(res) {
		t.Errorf("a strip solve stagnated on NaN data reports %v, want NaN", res)
	}
}

// A warmed strip Newton iteration runs on the rank's reused strip solver
// and Krylov workspace and allocates nothing.
func TestChemStepUpdateAllocs(t *testing.T) {
	p := chem.New(16, 16)
	step := NewChemStep(p, p.InitialState(), 180, 180, gmres.Params{})
	bounds := step.PartitionBounds(4)
	x := step.InitialVector()
	step.Update(1, bounds, x) // warm-up builds the Krylov workspace
	if n := testing.AllocsPerRun(10, func() {
		step.Update(1, bounds, x)
	}); n != 0 {
		t.Errorf("chem step update allocates %.0f per call; want 0", n)
	}
}

package bench

// Allocation regression tests for the per-iteration hot path. Every
// kernel a rank executes each iteration — the banded matvec, the fused
// gradient step, and the inner GMRES solve — must be allocation-free
// after its first call: steady-state allocations would put the garbage
// collector inside the measured loop and skew every native wall-clock
// cell. testing.AllocsPerRun pins the budget at exactly zero.

import (
	"testing"

	"aiac/internal/aiac"
	"aiac/internal/des"
	"aiac/internal/gmres"
	"aiac/internal/marcel"
	"aiac/internal/matrix"
	"aiac/internal/problems"
	"aiac/internal/sparse"
	"aiac/internal/trace"
)

// onBothKernelPaths runs f on the primitives internal/sparse chose at
// start-up (AVX2 where the machine has it) and again on the pure-Go ones.
func onBothKernelPaths(t *testing.T, f func(t *testing.T)) {
	t.Run(sparse.KernelPath(), f)
	t.Run("pinned-portable", func(t *testing.T) {
		sparse.PinPortable(t)
		f(t)
	})
}

func TestRowRangeMulVecAllocs(t *testing.T) {
	prob := problems.NewLinear(4000, 12, 0.85, 7)
	bounds := prob.PartitionBounds(8)
	x := prob.InitialVector()
	lo, hi := bounds[0], bounds[1]
	dst := make([]float64, hi-lo)
	onBothKernelPaths(t, func(t *testing.T) {
		if n := testing.AllocsPerRun(50, func() {
			prob.A.RowRangeMulVec(lo, hi, dst, x)
		}); n != 0 {
			t.Errorf("RowRangeMulVec allocates %.0f per call; want 0", n)
		}
	})
}

func TestGradientStepAllocs(t *testing.T) {
	for _, op := range []string{"dia", "stencil"} {
		prob := problems.NewLinearOp(op, 4000, 12, 0.85, 7)
		bounds := prob.PartitionBounds(8)
		x := prob.InitialVector()
		prob.Update(0, bounds, x) // warm-up builds the rank's scratch
		onBothKernelPaths(t, func(t *testing.T) {
			if n := testing.AllocsPerRun(50, func() {
				prob.Update(0, bounds, x)
			}); n != 0 {
				t.Errorf("%s fused gradient step allocates %.0f per call; want 0", op, n)
			}
		})
	}
}

// The multi-tile deferred-write path of GradientStep (blocks larger than
// one cache tile) must be allocation-free too — it is what paper-scale
// blocks execute.
func TestGradientStepTiledAllocs(t *testing.T) {
	prob := problems.NewLinear(40000, 12, 0.85, 7)
	bounds := prob.PartitionBounds(4) // 10000-row blocks: several tiles
	x := prob.InitialVector()
	prob.Update(0, bounds, x)
	onBothKernelPaths(t, func(t *testing.T) {
		if n := testing.AllocsPerRun(20, func() {
			prob.Update(0, bounds, x)
		}); n != 0 {
			t.Errorf("tiled gradient step allocates %.0f per call; want 0", n)
		}
	})
}

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

// The simulator core under every simulated message and CPU charge (the
// event-queue ladder of DES.md): scheduling and running an event allocates
// nothing once the heap has grown — QueueHighWater's bookkeeping included —
// and a process wake-up is carried in the event itself, so sleeping and
// unparking cost no allocation beyond the continuation the caller built.

func TestScheduleRunAllocs(t *testing.T) {
	sim := des.New()
	fired := 0
	tick := func() { fired++ }
	burst := func() {
		for i := 0; i < 256; i++ {
			sim.Schedule(sim.Now()+des.Time(i%7), tick)
		}
		sim.Run()
	}
	burst() // grows the heap to its working depth
	if n := testing.AllocsPerRun(20, burst); n != 0 {
		t.Errorf("256 Schedule+run pairs allocate %.0f; want 0", n)
	}
	if fired != 22*256 || sim.QueueHighWater() != 256 {
		t.Errorf("fired %d events at high water %d; want %d at 256", fired, sim.QueueHighWater(), 22*256)
	}
}

func TestSleepKUnparkAllocs(t *testing.T) {
	sim := des.New()
	const rounds = 100
	left := 0
	var sleeper, parker *des.Proc
	var sleepLoop, parkLoop func()
	sleepLoop = func() {
		if left == 0 {
			return
		}
		left--
		parker.Unpark()
		sleeper.SleepK(1, sleepLoop)
	}
	parkLoop = func() {
		if left > 0 {
			parker.ParkK(parkLoop)
		}
	}
	// run spawns the pair and plays n rounds; with n = 0 both tasks finish
	// at once, which leaves what spawning alone allocates: two Procs, their
	// body closures, the first continuations.
	run := func(n int) func() {
		return func() {
			left = n
			parker = sim.SpawnTask("parker", func(p *des.Proc) { parkLoop() })
			sleeper = sim.SpawnTask("sleeper", func(p *des.Proc) { p.SleepK(0, sleepLoop) })
			sim.Run()
		}
	}
	run(rounds)()
	spawn := testing.AllocsPerRun(20, run(0))
	if n := testing.AllocsPerRun(20, run(rounds)); n != spawn {
		t.Errorf("%d SleepK+Unpark rounds allocate %.0f beyond the %.0f of spawning; want 0", rounds, n-spawn, spawn)
	}
	if sim.LiveProcs() != 0 {
		t.Errorf("%d tasks left alive", sim.LiveProcs())
	}
}

// One CPU charge on a lone task allocates nothing: the request is recycled
// through the CPU's free list and is itself the target of its
// slice-completion event, and the unpark is an event in the now-lane.
func TestComputeKAllocs(t *testing.T) {
	const charges = 100
	if n := computeKAllocs(charges); n != 0 {
		t.Errorf("%d ComputeK charges allocate %.0f; want 0", charges, n)
	}
}

// computeKAllocs returns what a run of `charges` CPU charges on a lone,
// warmed-up task allocates.
func computeKAllocs(charges int) float64 {
	sim := des.New()
	cpu := marcel.NewCPU(sim, "pin", 1000)
	var task *des.Proc
	left := 0
	var loop func()
	loop = func() {
		if left == 0 {
			task.ParkK(loop)
			return
		}
		left--
		cpu.ComputeK(task, 1e4, loop)
	}
	task = sim.SpawnTask("charge", func(p *des.Proc) { loop() })
	sim.Run()
	return testing.AllocsPerRun(20, func() {
		left = charges
		task.Unpark()
		sim.Run()
	})
}

// The trace under every traced iteration (TRACE.md): an iteration that
// continues its rank's run — same stride, next number, no gap — extends the
// latest span in place and allocates nothing, with other ranks' runs
// interleaved as a real cell interleaves them.
func TestAddSpanExtendAllocs(t *testing.T) {
	c := trace.New()
	var at [4]des.Time
	var iter [4]int
	step := func() {
		for r := range at {
			stride := des.Time(100 + r)
			c.AddSpan(r, at[r], at[r]+stride, trace.Compute, iter[r])
			at[r] += stride
			iter[r]++
		}
	}
	step() // appends each rank's first span
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Errorf("AddSpan on the extend path allocates %.2f per 4 calls; want 0", n)
	}
	if len(c.Spans) != 4 || c.Iterations() != 4*102 {
		t.Errorf("%d spans holding %d iterations; want 4 holding %d", len(c.Spans), c.Iterations(), 4*102)
	}
}

// A spinning async cell behind ADSL is where the per-iteration trace cost
// 300 MB: its ranks must record runs, not iterations.
func TestAsyncADSLTraceRecordsRuns(t *testing.T) {
	spec := matrix.DefaultSpec()
	spec.Sizes = []int{600}
	spec.Linear.MaxIters = 12000
	c := matrix.Cell{Env: "pm2", Mode: aiac.Async, Grid: "adsl", Problem: "linear",
		Procs: 4, Size: 600, Scenario: "static", Backend: "sim-fast"}
	tr := trace.New()
	if _, err := matrix.RunCellOnce(c, spec, 0, 0, 0, tr); err != nil {
		t.Fatal(err)
	}
	if iters := tr.Iterations(); iters < 40000 || iters < 50*len(tr.Spans) {
		t.Errorf("%d iterations in %d spans; want at most one span per 50 iterations", iters, len(tr.Spans))
	}
}

// The native sync loop snapshots its halos into buffers allocated once per
// solve: a 2-rank SISC solve over the in-process transport allocates, per
// lockstep iteration and over both ranks, less than one halo segment.
func TestSyncHaloAllocs(t *testing.T) {
	perIter, halo := syncHaloBytes(t)
	t.Logf("%.0f B per lockstep iteration; one halo segment is %d B", perIter, halo)
	if perIter >= float64(halo) {
		t.Errorf("sync solve allocates %.0f B per lockstep iteration; want < one halo segment (%d B)", perIter, halo)
	}
}

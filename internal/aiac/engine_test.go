package aiac_test

import (
	"math"
	"testing"

	"aiac/internal/aiac"
	"aiac/internal/cluster"
	"aiac/internal/des"
	"aiac/internal/env/envcore"
	"aiac/internal/la"
	"aiac/internal/netsim"
	"aiac/internal/problems"
	"aiac/internal/trace"
)

// linearProblem builds a test system whose per-iteration compute time is
// commensurate with the simulated network latencies (the paper's regime).
// The dominance ratio 0.6 keeps the number of communication rounds small so
// the test suite stays fast.
func linearProblem(n int, seed int64) *problems.Linear {
	return problems.NewLinear(n, 8, 0.6, seed)
}

func TestAsyncLinearConvergesToTruth(t *testing.T) {
	sim := des.New()
	grid := cluster.Homogeneous(sim, 4, cluster.P4_2400, netsim.Ethernet100)
	env := envcore.MustNew(grid, envcore.Middleware("madmpi", true))
	prob := linearProblem(3000, 1)
	rep := aiac.Run(grid, env, prob, aiac.Config{Mode: aiac.Async, Eps: 1e-7})
	if rep.Reason != aiac.StopConverged {
		t.Fatalf("reason = %s", rep.Reason)
	}
	if d := la.MaxNormDiff(rep.X, prob.XTrue); d > 1e-4 {
		t.Fatalf("solution error %v", d)
	}
	if rep.Elapsed <= 0 {
		t.Fatal("no time elapsed")
	}
}

func TestAsyncConvergesOnAllAsyncEnvs(t *testing.T) {
	middleware := map[string]string{"pm2": "pm2", "madmpi": "madmpi", "orb": "omniorb"} // by subtest
	for name, mw := range middleware {
		t.Run(name, func(t *testing.T) {
			sim := des.New()
			grid := cluster.LocalHeterogeneous(sim, 6)
			env := envcore.MustNew(grid, envcore.Middleware(mw, true))
			prob := linearProblem(3000, 2)
			rep := aiac.Run(grid, env, prob, aiac.Config{Mode: aiac.Async, Eps: 1e-7})
			if rep.Reason != aiac.StopConverged {
				t.Fatalf("%s: reason = %s", name, rep.Reason)
			}
			if d := la.MaxNormDiff(rep.X, prob.XTrue); d > 1e-4 {
				t.Fatalf("%s: solution error %v", name, d)
			}
		})
	}
}

func TestSyncLinearConverges(t *testing.T) {
	sim := des.New()
	grid := cluster.Homogeneous(sim, 4, cluster.P4_1700, netsim.Ethernet100)
	env := envcore.MustNew(grid, envcore.Middleware("mpi", true))
	prob := linearProblem(3000, 3)
	rep := aiac.Run(grid, env, prob, aiac.Config{Mode: aiac.Sync, Eps: 1e-7})
	if rep.Reason != aiac.StopConverged {
		t.Fatalf("reason = %s", rep.Reason)
	}
	if d := la.MaxNormDiff(rep.X, prob.XTrue); d > 1e-4 {
		t.Fatalf("solution error %v", d)
	}
	// Lockstep: all ranks perform the same number of iterations.
	for r := 1; r < len(rep.ItersPerRank); r++ {
		if rep.ItersPerRank[r] != rep.ItersPerRank[0] {
			t.Fatalf("sync iterations unequal: %v", rep.ItersPerRank)
		}
	}
}

func TestAsyncItersDifferOnHeterogeneousGrid(t *testing.T) {
	sim := des.New()
	grid := cluster.LocalHeterogeneous(sim, 6) // duron/p4 interleaved
	env := envcore.MustNew(grid, envcore.Middleware("pm2", true))
	prob := linearProblem(3000, 4)
	rep := aiac.Run(grid, env, prob, aiac.Config{Mode: aiac.Async, Eps: 1e-7})
	if rep.Reason != aiac.StopConverged {
		t.Fatalf("reason = %s", rep.Reason)
	}
	// A P4 2.4 (rank 2) should out-iterate a Duron 800 (rank 0): the
	// asynchronous scheme lets fast machines run ahead.
	if rep.ItersPerRank[2] <= rep.ItersPerRank[0] {
		t.Fatalf("fast machine did not out-iterate slow one: %v", rep.ItersPerRank)
	}
}

func TestAsyncBeatsSyncOnDistantGrid(t *testing.T) {
	// The Table 2 configuration (reduced scale): the asynchronous gain
	// needs the paper's regime — many iterative exchange rounds (high
	// dominance ratio) over a slow shared medium, where the skip policy
	// lets every delivered message carry the freshest values. In a
	// communication-bound toy regime with few rounds the two schemes tie.
	mk := func() *problems.Linear { return problems.NewLinear(120000, 30, 0.88, 5) }
	simA := des.New()
	gridA := cluster.ThreeSiteEthernet(simA, 12)
	envA := envcore.MustNew(gridA, envcore.Middleware("pm2", true))
	// The shared 10 Mb medium makes dependency refreshes slow relative to
	// the test iterations, so fast ranks spin a lot before each new
	// arrival — raise the iteration cap accordingly.
	repA := aiac.Run(gridA, envA, mk(), aiac.Config{Mode: aiac.Async, Eps: 1e-5, MaxIters: 3000000})

	simS := des.New()
	gridS := cluster.ThreeSiteEthernet(simS, 12)
	envS := envcore.MustNew(gridS, envcore.Middleware("mpi", true))
	repS := aiac.Run(gridS, envS, mk(), aiac.Config{Mode: aiac.Sync, Eps: 1e-5})

	if repA.Reason != aiac.StopConverged || repS.Reason != aiac.StopConverged {
		t.Fatalf("reasons: async %s sync %s", repA.Reason, repS.Reason)
	}
	if repA.Elapsed >= repS.Elapsed {
		t.Fatalf("async (%v) not faster than sync (%v) on a distant grid", repA.Elapsed, repS.Elapsed)
	}
}

func TestDeterministicRuns(t *testing.T) {
	runOnce := func() (des.Time, int) {
		sim := des.New()
		grid := cluster.ThreeSiteEthernet(sim, 5)
		env := envcore.MustNew(grid, envcore.Middleware("omniorb", true))
		prob := linearProblem(8000, 6)
		rep := aiac.Run(grid, env, prob, aiac.Config{Mode: aiac.Async, Eps: 1e-7, MaxIters: 3000000})
		return rep.Elapsed, rep.TotalIters()
	}
	e1, i1 := runOnce()
	e2, i2 := runOnce()
	if e1 != e2 || i1 != i2 {
		t.Fatalf("non-deterministic: (%v,%d) vs (%v,%d)", e1, i1, e2, i2)
	}
}

func TestIterationCap(t *testing.T) {
	sim := des.New()
	grid := cluster.Homogeneous(sim, 3, cluster.P4_2400, netsim.Ethernet100)
	env := envcore.MustNew(grid, envcore.Middleware("madmpi", true))
	prob := linearProblem(2000, 7)
	// Impossible tolerance: must stop on the cap, not hang.
	rep := aiac.Run(grid, env, prob, aiac.Config{Mode: aiac.Async, Eps: 1e-300, MaxIters: 50})
	if rep.Reason != aiac.StopIterCap {
		t.Fatalf("reason = %s, want iteration-cap", rep.Reason)
	}
	for r, n := range rep.ItersPerRank {
		if n > 50 {
			t.Fatalf("rank %d exceeded cap: %d", r, n)
		}
	}
}

func TestBuildSendPlan(t *testing.T) {
	prob := linearProblem(500, 8)
	bounds := prob.PartitionBounds(4)
	plan := aiac.BuildSendPlan(prob, bounds)
	// Keys are globally unique.
	seen := map[int]bool{}
	for r, targets := range plan.Targets {
		for _, tg := range targets {
			if seen[tg.Key] {
				t.Fatalf("duplicate key %d", tg.Key)
			}
			seen[tg.Key] = true
			if tg.To == r {
				t.Fatalf("rank %d sends to itself", r)
			}
			// The segment must be inside the sender's block.
			if tg.Seg.Lo < bounds[r] || tg.Seg.Hi > bounds[r+1] {
				t.Fatalf("rank %d sends segment %+v outside its block [%d,%d)", r, tg.Seg, bounds[r], bounds[r+1])
			}
		}
	}
	// Each rank's receive count equals the number of plan targets
	// pointing at it.
	counts := make([]int, 4)
	for _, targets := range plan.Targets {
		for _, tg := range targets {
			counts[tg.To]++
		}
	}
	for r := range counts {
		if counts[r] != len(plan.Recv[r]) {
			t.Fatalf("recv count mismatch for rank %d: %d vs %d", r, counts[r], len(plan.Recv[r]))
		}
	}
}

func TestSolutionAgreesAcrossModes(t *testing.T) {
	solve := func(mode aiac.Mode) []float64 {
		sim := des.New()
		grid := cluster.Homogeneous(sim, 4, cluster.P4_2400, netsim.Ethernet100)
		var env aiac.Env
		if mode == aiac.Sync {
			env = envcore.MustNew(grid, envcore.Middleware("mpi", true))
		} else {
			env = envcore.MustNew(grid, envcore.Middleware("pm2", true))
		}
		prob := linearProblem(3000, 9)
		rep := aiac.Run(grid, env, prob, aiac.Config{Mode: mode, Eps: 1e-8})
		return rep.X
	}
	xa := solve(aiac.Async)
	xs := solve(aiac.Sync)
	if d := la.MaxNormDiff(xa, xs); d > 1e-4 {
		t.Fatalf("async and sync solutions differ by %v", d)
	}
}

func TestReportTotals(t *testing.T) {
	rep := &aiac.Report{ItersPerRank: []int{3, 4, 5}}
	if rep.TotalIters() != 12 {
		t.Fatal("TotalIters wrong")
	}
}

func TestNaNResidualNeverConverges(t *testing.T) {
	// A problem whose residual is NaN must never be declared converged:
	// the solve ends at the first one, well before its iteration cap.
	sim := des.New()
	grid := cluster.Homogeneous(sim, 2, cluster.P4_2400, netsim.Ethernet100)
	env := envcore.MustNew(grid, envcore.Middleware("pm2", true))
	prob := &nanProblem{n: 64}
	rep := aiac.Run(grid, env, prob, aiac.Config{Mode: aiac.Async, Eps: 1e-6, MaxIters: 20})
	if rep.Reason != aiac.StopNonFinite || rep.TotalIters() >= 20 {
		t.Fatalf("NaN residual led to %s after %d iterations", rep.Reason, rep.TotalIters())
	}
}

// nanProblem always reports NaN residuals.
type nanProblem struct{ n int }

func (q *nanProblem) Name() string                { return "nan" }
func (q *nanProblem) Size() int                   { return q.n }
func (q *nanProblem) InitialVector() []float64    { return make([]float64, q.n) }
func (q *nanProblem) PartitionBounds(r int) []int { return []int{0, q.n / 2, q.n} }
func (q *nanProblem) DepsFor(rank int, bounds []int) []aiac.Segment {
	if rank == 0 {
		return []aiac.Segment{{Lo: bounds[1], Hi: bounds[2]}}
	}
	return []aiac.Segment{{Lo: 0, Hi: bounds[1]}}
}
func (q *nanProblem) Update(rank int, bounds []int, x []float64) (float64, float64) {
	return math.NaN(), 1000
}

// The engine must record execution-flow spans for every rank when given a
// trace collector, and the sync mode must record idle spans (Figure 1's
// white spaces) while the async mode records none.
func TestEngineTraceIntegration(t *testing.T) {
	runWith := func(mode aiac.Mode) *trace.Collector {
		tr := trace.New()
		sim := des.New()
		grid := cluster.Homogeneous(sim, 3, cluster.P4_2400, netsim.Ethernet100)
		opts := envcore.Middleware("pm2", true)
		if mode == aiac.Sync {
			opts = envcore.Middleware("mpi", true)
		}
		opts.Trace = tr
		env := envcore.MustNew(grid, opts)
		prob := linearProblem(1500, 12)
		rep := aiac.Run(grid, env, prob, aiac.Config{Mode: mode, Eps: 1e-6, Trace: tr})
		if rep.Reason != aiac.StopConverged {
			t.Fatalf("%v run did not converge", mode)
		}
		return tr
	}
	syncTr := runWith(aiac.Sync)
	asyncTr := runWith(aiac.Async)
	for r := 0; r < 3; r++ {
		if busy, _ := syncTr.BusyIdle(r); busy == 0 {
			t.Fatalf("sync trace missing compute spans for rank %d", r)
		}
		if busy, _ := asyncTr.BusyIdle(r); busy == 0 {
			t.Fatalf("async trace missing compute spans for rank %d", r)
		}
		if _, idle := syncTr.BusyIdle(r); idle == 0 {
			t.Fatalf("sync trace has no idle spans for rank %d", r)
		}
		if _, idle := asyncTr.BusyIdle(r); idle != 0 {
			t.Fatalf("async trace recorded idle time for rank %d", r)
		}
	}
	if len(syncTr.Msgs) == 0 || len(asyncTr.Msgs) == 0 {
		t.Fatal("traces recorded no messages")
	}
}

// Reusing one environment across several engine sessions (the chemical
// problem's pattern) must keep converging: ResetSession isolates sessions.
func TestEnvReuseAcrossSessions(t *testing.T) {
	sim := des.New()
	grid := cluster.Homogeneous(sim, 3, cluster.P4_2400, netsim.Ethernet100)
	env := envcore.MustNew(grid, envcore.Middleware("pm2", true))
	for session := 0; session < 3; session++ {
		prob := linearProblem(1500, int64(20+session))
		rep := aiac.Run(grid, env, prob, aiac.Config{Mode: aiac.Async, Eps: 1e-6})
		if rep.Reason != aiac.StopConverged {
			t.Fatalf("session %d did not converge", session)
		}
		if d := la.MaxNormDiff(rep.X, prob.XTrue); d > 1e-3 {
			t.Fatalf("session %d wrong solution: %v", session, d)
		}
	}
}

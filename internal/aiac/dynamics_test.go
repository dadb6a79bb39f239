package aiac_test

import (
	"testing"
	"time"

	"aiac/internal/aiac"
	"aiac/internal/cluster"
	"aiac/internal/des"
	"aiac/internal/env/envcore"
	"aiac/internal/la"
	"aiac/internal/scenario"
)

// crashScenario crashes rank at [crash, restart] once.
func crashScenario(rank int, crash, restart des.Time) *scenario.Scenario {
	return &scenario.Scenario{
		Name: "test-crash",
		Build: func(*cluster.Grid) []scenario.Event {
			return []scenario.Event{
				{At: crash, Apply: func(rt *scenario.Runtime) { rt.Crash(rank) }},
				{At: restart, Apply: func(rt *scenario.Runtime) { rt.Restart(rank) }},
			}
		},
	}
}

func TestAsyncSurvivesCrashWithStateLoss(t *testing.T) {
	sim := des.New()
	grid := cluster.LocalHeterogeneous(sim, 4)
	env := envcore.MustNew(grid, envcore.Middleware("pm2", true))
	prob := linearProblem(3000, 1)
	rt := scenario.Deploy(crashScenario(2, 20*time.Millisecond, 60*time.Millisecond), grid)
	rep := aiac.Run(grid, env, prob, aiac.Config{Mode: aiac.Async, Eps: 1e-7, Dynamics: rt})
	if rep.Reason != aiac.StopConverged {
		t.Fatalf("reason = %s (stalled=%v)", rep.Reason, rep.Stalled)
	}
	if rep.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", rep.Restarts)
	}
	if d := la.MaxNormDiff(rep.X, prob.XTrue); d > 1e-4 {
		t.Fatalf("solution error %v after restart", d)
	}
	// The crashed rank lost its state at 60ms, so convergence must be
	// re-detected after the restart instant.
	if rep.End <= 60*time.Millisecond {
		t.Fatalf("run ended at %v, before the restart", rep.End)
	}
	if rep.Reconverge <= 0 {
		t.Fatal("no reconvergence time measured")
	}
	if want := rep.End - 60*time.Millisecond; rep.Reconverge != want {
		t.Fatalf("reconverge = %v, want end-restart = %v", rep.Reconverge, want)
	}
}

func TestSyncStallsWhenPeerCrashes(t *testing.T) {
	sim := des.New()
	grid := cluster.LocalHeterogeneous(sim, 4)
	env := envcore.MustNew(grid, envcore.Middleware("pm2", true))
	prob := linearProblem(3000, 1)
	// Crash long enough that exchanged messages are lost; SISC has no
	// recovery protocol, so the lockstep deadlocks — and the simulation
	// must still terminate (stall detection, not a hang).
	rt := scenario.Deploy(crashScenario(2, 20*time.Millisecond, 80*time.Millisecond), grid)
	rep := aiac.Run(grid, env, prob, aiac.Config{Mode: aiac.Sync, Eps: 1e-7, MaxIters: 5000, Dynamics: rt})
	if !rep.Stalled || rep.Reason != aiac.StopStalled {
		t.Fatalf("reason = %s, stalled = %v; want a stall", rep.Reason, rep.Stalled)
	}
	if rep.Elapsed <= 0 {
		t.Fatal("stalled run reports no elapsed time")
	}
}

// partitionScenario partitions site for [from, to] windows.
func partitionScenario(site int, windows [][2]des.Time) *scenario.Scenario {
	return &scenario.Scenario{
		Name: "test-partition",
		Build: func(*cluster.Grid) []scenario.Event {
			var evs []scenario.Event
			for _, w := range windows {
				w := w
				evs = append(evs,
					scenario.Event{At: w[0], Apply: func(rt *scenario.Runtime) { rt.PartitionSite(site, true) }},
					scenario.Event{At: w[1], Apply: func(rt *scenario.Runtime) { rt.PartitionSite(site, false) }},
				)
			}
			return evs
		},
	}
}

// TestAsyncRidesOutPartitions exercises the full fault-tolerance path: a
// site repeatedly partitions (messages lost, including convergence-state
// messages and possibly the stop broadcast), the asynchronous versions
// keep iterating on stale data, and the heartbeat/stop-rebroadcast
// protocol still terminates the run with a correct solution.
func TestAsyncRidesOutPartitions(t *testing.T) {
	sim := des.New()
	grid := cluster.ThreeSiteEthernet(sim, 6)
	env := envcore.MustNew(grid, envcore.Middleware("pm2", true))
	prob := linearProblem(3000, 5)
	windows := [][2]des.Time{
		{100 * time.Millisecond, 300 * time.Millisecond},
		{600 * time.Millisecond, 900 * time.Millisecond},
		{1500 * time.Millisecond, 1800 * time.Millisecond},
		{3 * time.Second, 4 * time.Second},
		{6 * time.Second, 7 * time.Second},
	}
	rt := scenario.Deploy(partitionScenario(2, windows), grid)
	rep := aiac.Run(grid, env, prob, aiac.Config{Mode: aiac.Async, Eps: 1e-7, Dynamics: rt})
	if rep.Reason != aiac.StopConverged {
		t.Fatalf("reason = %s (stalled=%v, iters=%v)", rep.Reason, rep.Stalled, rep.ItersPerRank)
	}
	if d := la.MaxNormDiff(rep.X, prob.XTrue); d > 1e-4 {
		t.Fatalf("solution error %v", d)
	}
}

func TestStaticDynamicsChangeNothing(t *testing.T) {
	run := func(dyn aiac.Dynamics) *aiac.Report {
		sim := des.New()
		grid := cluster.LocalHeterogeneous(sim, 4)
		env := envcore.MustNew(grid, envcore.Middleware("pm2", true))
		return aiac.Run(grid, env, linearProblem(2000, 3), aiac.Config{Mode: aiac.Async, Eps: 1e-7, Dynamics: dyn})
	}
	var static aiac.Dynamics
	{
		sim := des.New()
		grid := cluster.LocalHeterogeneous(sim, 4)
		static = scenario.Deploy(scenario.Static(), grid)
		_ = sim
	}
	// A static scenario runtime and a nil Dynamics must produce the same
	// execution (the runtime belongs to another grid, but a static
	// timeline never touches it).
	a, b := run(nil), run(static)
	if a.Elapsed != b.Elapsed || a.TotalIters() != b.TotalIters() {
		t.Fatalf("static dynamics changed the run: %v/%d vs %v/%d",
			a.Elapsed, a.TotalIters(), b.Elapsed, b.TotalIters())
	}
	if b.Reconverge != 0 {
		t.Fatalf("static run measured a reconvergence time %v", b.Reconverge)
	}
}

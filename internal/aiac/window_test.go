package aiac_test

import (
	"math"
	"testing"
	"time"

	"aiac/internal/aiac"
	"aiac/internal/backend"
	"aiac/internal/cluster"
	"aiac/internal/des"
	"aiac/internal/env/pm2"
	"aiac/internal/la"
	"aiac/internal/netsim"
	"aiac/internal/problems"
	"aiac/internal/scenario"
)

// windowSolve solves prob on eight ranks: simulated, on pm2 over a machine
// class slow enough (about 25 ms of virtual time an iteration) that
// node-churn's first crash (0.7 s) lands mid-solve; or natively, over the
// in-process transport.
func windowSolve(t *testing.T, prob aiac.Problem, be string, mode aiac.Mode, scen string) *aiac.Report {
	t.Helper()
	const ranks, eps = 8, 1e-7
	if be == "chan" {
		tp, err := backend.NewTransport(be, ranks)
		if err != nil {
			t.Fatal(err)
		}
		rpt, err := backend.Run(prob, tp, backend.Config{Mode: mode, Eps: eps, Timeout: time.Minute, StallAfter: 20 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		return &rpt.Report
	}
	sim := des.New()
	grid := cluster.Homogeneous(sim, ranks, cluster.MachineClass{Name: "slow", MFlops: 5}, netsim.Ethernet100)
	cfg := aiac.Config{Mode: mode, Eps: eps}
	if scen != "static" {
		s, err := scenario.ByName(scen)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Dynamics = scenario.Deploy(s, grid)
	}
	return aiac.Run(grid, pm2.MustNew(grid, pm2.Sparse, nil), prob, cfg)
}

// A rank that stores only its window computes what a rank that stores the
// whole vector does: the same problem, solved once as it states its
// windows and once behind hidden (which hides Window, so every rank's
// Loop holds the whole vector), yields the same report bit for bit — in
// both modes and across crashes and restarts on the simulator.
//
// A native run cannot be held to that: its elapsed time is the wall
// clock's, and a rank incorporates whatever arrives, so it may step on a
// neighbour's block of a later iteration than the one it waited for (in
// either mode, the first iteration included) and two native runs of the
// same layout differ too. A native case solves both layouts to
// convergence and holds each iterate to the known solution.
func TestWindowMatchesWholeVector(t *testing.T) {
	prob := problems.NewLinear(36000, 12, 0.6, 3)
	bounds := prob.PartitionBounds(8)
	smaller := false
	for r := range 8 {
		n := 0
		for _, w := range prob.Window(r, bounds) {
			n += w.Len()
		}
		smaller = smaller || n < prob.Size()
	}
	if !smaller {
		t.Fatal("every rank's window is the whole vector: the test compares nothing")
	}
	for _, c := range []struct {
		backend string
		mode    aiac.Mode
		scen    string
	}{
		{"sim", aiac.Sync, "static"}, {"sim", aiac.Async, "static"},
		{"sim", aiac.Async, "node-churn"},
		{"chan", aiac.Sync, "static"}, {"chan", aiac.Async, "static"},
	} {
		t.Run(c.backend+"/"+c.mode.String()+"/"+c.scen, func(t *testing.T) {
			whole := windowSolve(t, hidden{prob}, c.backend, c.mode, c.scen)
			if c.scen == "node-churn" && whole.Restarts == 0 {
				t.Fatal("no rank restarted")
			}
			win := windowSolve(t, prob, c.backend, c.mode, c.scen)
			if c.backend == "sim" {
				if !whole.Converged() {
					t.Fatalf("whole-vector solve: %s", whole.Reason)
				}
				sameReport(t, win, whole)
				return
			}
			for _, r := range []struct {
				layout string
				rpt    *aiac.Report
			}{{"windowed", win}, {"whole-vector", whole}} {
				if err := la.MaxNormDiff(r.rpt.X, prob.XTrue); !r.rpt.Converged() || err > 1e-5 {
					t.Errorf("%s solve: %s at a solution error of %.3g", r.layout, r.rpt.Reason, err)
				}
			}
		})
	}
}

// A windowed Loop maps a channel's values into its window, and a send
// target's out of it, without allocating.
func TestWindowedLoopAllocs(t *testing.T) {
	prob := problems.NewLinear(4000, 12, 0.85, 7)
	bounds := prob.PartitionBounds(8)
	plan := aiac.BuildSendPlan(prob, bounds)
	const r = 3
	l := aiac.NewLoop(r, aiac.Config{}, prob, bounds, plan, prob.InitialVector(), &script{busy: make([]bool, len(plan.Targets[r]))})
	var in []aiac.PlanTarget
	for _, targets := range plan.Targets {
		for _, tg := range targets {
			if tg.To == r {
				in = append(in, tg)
			}
		}
	}
	if len(in) == 0 || len(plan.Targets[r]) == 0 {
		t.Fatal("rank 3 neither receives nor sends")
	}
	buf := make([]float64, prob.Size())
	for i := range buf {
		buf[i] = math.Pi
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, tg := range in {
			l.Incorporate(tg.Key, buf[:tg.Seg.Len()], 1)
		}
		for _, tg := range plan.Targets[r] {
			copy(buf, l.Values(tg.Seg))
		}
	}); n != 0 {
		t.Errorf("a windowed Loop's Incorporate and send copies allocate %.0f per round; want 0", n)
	}
}

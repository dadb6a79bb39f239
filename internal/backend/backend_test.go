package backend

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"aiac/internal/aiac"
	"aiac/internal/chem"
	"aiac/internal/gmres"
	"aiac/internal/la"
	"aiac/internal/newton"
	"aiac/internal/problems"
	"aiac/internal/transport"
)

// both runs f against the chan and the tcp transport.
func both(t *testing.T, n int, f func(t *testing.T, tr transport.Transport)) {
	t.Helper()
	t.Run("chan", func(t *testing.T) { f(t, transport.NewChan(n)) })
	t.Run("tcp", func(t *testing.T) { f(t, transport.NewTCP(n)) })
}

func TestAsyncLinearConvergesToTruth(t *testing.T) {
	both(t, 4, func(t *testing.T, tr transport.Transport) {
		prob := problems.NewLinear(4000, 10, 0.7, 1)
		rep, err := Run(prob, tr, Config{Mode: aiac.Async, Eps: 1e-9, Timeout: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Converged() {
			t.Fatalf("did not converge: %s", rep.Reason)
		}
		if d := la.MaxNormDiff(rep.X, prob.XTrue); d > 1e-5 {
			t.Fatalf("solution error %v", d)
		}
		if rep.Wall <= 0 {
			t.Fatal("no wall time measured")
		}
		if rep.TotalIters() == 0 {
			t.Fatal("no iterations recorded")
		}
		if rep.Net.Messages == 0 || rep.Net.Bytes == 0 {
			t.Fatalf("no traffic recorded: %+v", rep.Net)
		}
	})
}

func TestSyncLinearConvergesToTruth(t *testing.T) {
	both(t, 4, func(t *testing.T, tr transport.Transport) {
		prob := problems.NewLinear(3000, 10, 0.7, 2)
		rep, err := Run(prob, tr, Config{Mode: aiac.Sync, Eps: 1e-9, Timeout: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Converged() {
			t.Fatalf("did not converge: %s", rep.Reason)
		}
		if d := la.MaxNormDiff(rep.X, prob.XTrue); d > 1e-5 {
			t.Fatalf("solution error %v", d)
		}
		// SISC lockstep: every rank performs the same iteration count.
		for _, it := range rep.ItersPerRank {
			if it != rep.ItersPerRank[0] {
				t.Fatalf("sync ranks out of lockstep: %v", rep.ItersPerRank)
			}
		}
	})
}

func TestSingleRankDegenerates(t *testing.T) {
	// One rank has no dependencies: plain sequential iteration.
	prob := problems.NewLinear(1000, 8, 0.6, 3)
	rep, err := Run(prob, transport.NewChan(1), Config{Mode: aiac.Async, Eps: 1e-10, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged() {
		t.Fatalf("single rank did not converge: %s", rep.Reason)
	}
	if d := la.MaxNormDiff(rep.X, prob.XTrue); d > 1e-7 {
		t.Fatalf("solution error %v", d)
	}
}

func TestIterationCap(t *testing.T) {
	prob := problems.NewLinear(1000, 8, 0.9, 4)
	rep, err := Run(prob, transport.NewChan(3), Config{
		Mode: aiac.Async, Eps: 1e-300, MaxIters: 200, Timeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Converged() {
		t.Fatal("impossible tolerance reported converged")
	}
	if rep.Reason != aiac.StopIterCap {
		t.Fatalf("reason = %s, want %s", rep.Reason, aiac.StopIterCap)
	}
	for r, n := range rep.ItersPerRank {
		if n > 200 {
			t.Fatalf("rank %d exceeded cap: %d", r, n)
		}
	}
}

// slowUpdate makes every Update of its problem last at least d and counts
// the calls.
type slowUpdate struct {
	aiac.Problem
	d       time.Duration
	updates atomic.Int64
}

func (p *slowUpdate) Update(rank int, bounds []int, x []float64) (float64, float64) {
	time.Sleep(p.d)
	p.updates.Add(1)
	return p.Problem.Update(rank, bounds, x)
}

// A converged rank that reuses its residual still spends an Update's time
// on each iteration, as the simulator charges it: iterating at an empty
// loop's pace would make a native cell's iteration count a measure of how
// long the stop took to arrive.
func TestReusedIterationIsCharged(t *testing.T) {
	const d = time.Millisecond
	prob := &slowUpdate{Problem: problems.NewLinear(1000, 8, 0.6, 3), d: d}
	rep, err := Run(prob, transport.NewChan(1), Config{
		Mode: aiac.Async, Eps: 1e-10, Grace: 50 * time.Millisecond, Timeout: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged() {
		t.Fatalf("did not converge: %s", rep.Reason)
	}
	iters, updates := rep.TotalIters(), int(prob.updates.Load())
	if updates >= iters {
		t.Fatalf("%d Updates in %d iterations: no residual was reused", updates, iters)
	}
	if spent := time.Duration(iters) * d; spent > rep.Wall {
		t.Fatalf("%d iterations (%d Updates of %v) in %v: reused iterations were not charged", iters, updates, d, rep.Wall)
	}
}

// The native backend must agree with the sequential reference on the
// chemical problem's first time step — "any aiac.Problem", not just the
// linear system.
func TestChemStep(t *testing.T) {
	p := chem.New(8, 9)
	y0 := p.InitialState()

	yRef := make([]float64, len(y0))
	copy(yRef, y0)
	sys := chem.NewEulerSystem(p, y0, 180, 180)
	if _, _, err := newton.Solve(sys, yRef, 1e-10, 40, gmres.Params{Tol: 1e-10, Restart: 30}); err != nil {
		t.Fatal(err)
	}

	prob := problems.NewChemStep(p, y0, 180, 180, gmres.Params{Tol: 1e-10, Restart: 30})
	rep, err := Run(prob, transport.NewChan(3), Config{Mode: aiac.Async, Eps: 1e-9, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged() {
		t.Fatalf("chem step did not converge: %s", rep.Reason)
	}
	for i := range yRef {
		scale := math.Abs(yRef[i]) + 1
		if math.Abs(rep.X[i]-yRef[i])/scale > 1e-5 {
			t.Fatalf("native result differs at %d: %v vs %v", i, rep.X[i], yRef[i])
		}
	}
}

// Sync and async must agree with each other on the same system.
func TestModesAgree(t *testing.T) {
	prob := problems.NewLinear(2000, 8, 0.7, 5)
	a, err := Run(prob, transport.NewChan(3), Config{Mode: aiac.Async, Eps: 1e-10, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	sy, err := Run(prob, transport.NewChan(3), Config{Mode: aiac.Sync, Eps: 1e-10, Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Converged() || !sy.Converged() {
		t.Fatalf("async %s, sync %s", a.Reason, sy.Reason)
	}
	for i := range a.X {
		if math.Abs(a.X[i]-sy.X[i]) > 1e-6 {
			t.Fatalf("modes disagree at %d: %v vs %v", i, a.X[i], sy.X[i])
		}
	}
}

func TestGridShapingProfiles(t *testing.T) {
	for _, grid := range GridNames {
		m, err := GridShaping(grid, 8)
		if err != nil {
			t.Fatal(err)
		}
		if len(m) != 8 || len(m[0]) != 8 {
			t.Fatalf("%s: matrix is %dx%d", grid, len(m), len(m[0]))
		}
		if m[0][0].Delay != 0 {
			t.Fatalf("%s: self link shaped", grid)
		}
	}
	// The ADSL asymmetry: rank 3 is on the ADSL site (round-robin over 4
	// sites), and leaving it costs more than entering it.
	m, _ := GridShaping("adsl", 8)
	if m[3][0].Delay <= m[0][3].Delay {
		t.Fatalf("adsl uplink (%v) should be slower than downlink (%v)", m[3][0].Delay, m[0][3].Delay)
	}
	if m[0][1].Delay >= m[0][3].Delay {
		t.Fatalf("ordinary inter-site (%v) should be faster than the ADSL site (%v)", m[0][1].Delay, m[0][3].Delay)
	}
	// Intra-site stays LAN-fast: ranks 0 and 4 share a site.
	if m[0][4].Delay >= m[0][1].Delay {
		t.Fatalf("intra-site (%v) should be faster than inter-site (%v)", m[0][4].Delay, m[0][1].Delay)
	}
	if _, err := GridShaping("nosuch", 4); err == nil {
		t.Fatal("unknown grid accepted")
	}
	if _, err := NewTransport("nosuch", 4); err == nil {
		t.Fatal("unknown transport accepted")
	}
}

package aiac_test

import (
	"reflect"
	"testing"

	"aiac/internal/aiac"
	"aiac/internal/protocol"
)

// The Loop driven from a scripted driver: no simulator, no goroutines —
// every action a test expects is returned by Next in the order listed.

// blocks is a stub problem of equal blocks, each depending on every other
// block, whose Update returns a fixed residual and counts its calls.
type blocks struct {
	ranks, per int
	res        float64
	updates    int
}

func (b *blocks) Name() string             { return "blocks" }
func (b *blocks) Size() int                { return b.ranks * b.per }
func (b *blocks) InitialVector() []float64 { return make([]float64, b.Size()) }

func (b *blocks) PartitionBounds(n int) []int {
	bounds := make([]int, n+1)
	for r := range bounds {
		bounds[r] = r * b.Size() / n
	}
	return bounds
}

func (b *blocks) Update(int, []int, []float64) (float64, float64) {
	b.updates++
	return b.res, 100
}

func (b *blocks) DepsFor(rank int, bounds []int) []aiac.Segment {
	var deps []aiac.Segment
	for r := 0; r+1 < len(bounds); r++ {
		if r != rank {
			deps = append(deps, aiac.Segment{Lo: bounds[r], Hi: bounds[r+1]})
		}
	}
	return deps
}

// script is the driver's side of the Port, set by the test between calls.
type script struct {
	stopped, crashed bool
	busy             []bool
}

func (s *script) Stopped() bool      { return s.stopped }
func (s *script) CanSend(i int) bool { return !s.busy[i] }
func (s *script) Crashed() bool {
	c := s.crashed
	s.crashed = false
	return c
}

// rig is rank 0's Loop over a blocks problem of n ranks.
type rig struct {
	t    *testing.T
	prob *blocks
	plan *aiac.SendPlan
	port *script
	l    *aiac.Loop
}

func newRig(t *testing.T, n int, res float64, cfg aiac.Config) *rig {
	prob := &blocks{ranks: n, per: 4, res: res}
	bounds := prob.PartitionBounds(n)
	plan := aiac.BuildSendPlan(prob, bounds)
	port := &script{busy: make([]bool, len(plan.Targets[0]))}
	return &rig{t: t, prob: prob, plan: plan, port: port,
		l: aiac.NewLoop(0, cfg, prob, bounds, plan, prob.InitialVector(), port)}
}

// next asserts the Loop's next action at now.
func (g *rig) next(now protocol.Time, want aiac.Action) {
	g.t.Helper()
	if got := g.l.Next(now); !reflect.DeepEqual(got, want) {
		g.t.Fatalf("Next(%d) = %+v; want %+v", now, got, want)
	}
}

// deliver incorporates a message from rank from to rank 0 at now.
func (g *rig) deliver(from int, now protocol.Time) {
	for _, tg := range g.plan.Targets[from] {
		if tg.To == 0 {
			g.l.Incorporate(tg.Key, make([]float64, tg.Seg.Len()), now)
			return
		}
	}
	g.t.Fatalf("rank %d sends nothing to rank 0", from)
}

var (
	compute = aiac.Action{Kind: aiac.Compute, Flops: 100}
	reused  = aiac.Action{Kind: aiac.Compute, Flops: 100, Reused: true}
	yield   = aiac.Action{Kind: aiac.Yield}
	exit    = aiac.Action{Kind: aiac.Exit}
)

func confirm(seq int, maxGap protocol.Time) aiac.Action {
	return aiac.Action{Kind: aiac.SendState, State: protocol.StateMsg{Converged: true, Seq: seq, MaxGap: maxGap}}
}

// A busy channel is skipped, not queued: only the free one is offered.
func TestLoopSkipsBusyChannel(t *testing.T) {
	g := newRig(t, 3, 1, aiac.Config{})
	g.port.busy[1] = true
	g.next(0, compute)
	g.next(1, aiac.Action{Kind: aiac.Send, Target: 0})
	g.next(1, yield)
	g.next(1, compute)
	g.port.busy[0] = true
	g.next(2, yield) // nothing free: straight to the iteration's end
	g.next(2, compute)
}

// An async rank that heard nothing new since an Update whose residual was
// far below Eps reuses it; an arrival, or a residual near Eps, recomputes.
func TestLoopReusesConvergedResidual(t *testing.T) {
	g := newRig(t, 2, 1e-12, aiac.Config{Eps: 1e-8})
	g.port.busy[0] = true
	g.next(0, compute)
	g.next(1, yield)
	g.next(1, reused)
	g.next(2, yield)
	g.next(2, reused)
	if g.prob.updates != 1 {
		t.Fatalf("%d Updates; want 1", g.prob.updates)
	}
	g.next(3, yield)
	g.deliver(1, 3)
	g.next(3, compute)
	g.next(4, yield)
	g.next(4, reused)
	if g.prob.updates != 2 {
		t.Fatalf("%d Updates after an arrival; want 2", g.prob.updates)
	}

	near := newRig(t, 2, 1e-9, aiac.Config{Eps: 1e-8}) // converged, but above Eps/100
	near.port.busy[0] = true
	near.next(0, compute)
	near.next(1, yield)
	near.next(1, compute)
	if near.prob.updates != 2 {
		t.Fatalf("%d Updates at residual Eps/10; want 2", near.prob.updates)
	}
}

// Persistence, then convergence, then a confirmation only once every
// dependency channel delivered after the instant of convergence, then
// heartbeats.
func TestLoopConfirmsOnFreshChannels(t *testing.T) {
	g := newRig(t, 3, 1e-12, aiac.Config{Eps: 1e-8, PersistIters: 3, StateHeartbeat: 100})
	g.port.busy[0], g.port.busy[1] = true, true
	g.deliver(1, 0)
	g.deliver(2, 0)
	g.next(1, compute) // iteration 0
	g.next(2, yield)   // streak 1
	g.next(2, reused)
	g.next(3, yield) // streak 2
	g.next(3, reused)
	g.next(4, yield) // streak 3: converged at 4
	g.deliver(1, 4)  // not after the convergence instant
	g.next(4, compute)
	g.next(5, yield)
	g.deliver(1, 6) // one channel fresh, the other not
	g.next(6, compute)
	g.next(7, yield)
	g.deliver(2, 8)
	g.next(8, compute)
	g.next(9, confirm(1, 8)) // the longest gap: channel 2, heard at 0 and 8
	g.next(9, reused)
	g.next(50, yield)
	g.next(50, reused)
	g.next(108, yield) // 99 after the confirmation
	g.next(108, reused)
	g.next(109, confirm(2, 8))
	g.next(110, reused)
}

// Every Loop exits at the iteration cap; one that got there with the stop
// still closed is capped, and a capped rank denies the run its convergence
// even once the coordinator stopped.
func TestLoopIterationCap(t *testing.T) {
	cfg := aiac.Config{Eps: 1e-300, MaxIters: 3}
	g := newRig(t, 2, 1, cfg)
	g.port.busy[0] = true
	g.next(0, compute)
	g.next(1, yield)
	g.next(1, compute)
	g.next(2, yield)
	g.next(2, compute)
	g.next(3, yield)
	g.next(3, exit)

	coord := protocol.NewCoordinator(1, cfg.Params(), inline{})
	coord.OnState(protocol.StateMsg{From: 0, Converged: true})
	if rep := aiac.NewReport([]*aiac.Loop{g.l}, coord, false); rep.Reason != aiac.StopIterCap || rep.TotalIters() != 3 {
		t.Fatalf("capped rank: reason %s after %d iterations; want %s after 3", rep.Reason, rep.TotalIters(), aiac.StopIterCap)
	}
	s := newRig(t, 2, 1, cfg)
	s.port.busy[0] = true
	s.next(0, compute)
	s.port.stopped = true
	s.next(1, yield)
	s.next(1, exit)
	if rep := aiac.NewReport([]*aiac.Loop{s.l}, coord, false); rep.Reason != aiac.StopConverged {
		t.Fatalf("stopped rank: reason %s; want %s", rep.Reason, aiac.StopConverged)
	}
}

// inline runs the coordinator's grace timer at once.
type inline struct{}

func (inline) AfterGrace(f func()) func() { f(); return func() {} }
func (inline) BroadcastStop()             {}

// A sync rank computes, exchanges and reduces; a global maximum below Eps
// validates its block — a restarted one included — and it exits.
func TestLoopSyncValidatesAndStops(t *testing.T) {
	cfg := aiac.Config{Mode: aiac.Sync, Eps: 1e-8}
	g := newRig(t, 2, 1e-12, cfg)
	coord := protocol.NewCoordinator(1, cfg.Params(), inline{})
	g.port.crashed = true
	g.next(0, aiac.Action{Kind: aiac.Recover})
	g.l.Restart(5)
	g.next(5, compute) // a sync rank never confirms, so it has nothing to retract
	g.next(6, aiac.Action{Kind: aiac.Exchange})
	g.next(7, aiac.Action{Kind: aiac.Allreduce, V: 1e-12})
	g.l.Reduced(1)
	g.next(8, compute) // never reused in sync mode
	g.next(9, aiac.Action{Kind: aiac.Exchange})
	g.next(9, aiac.Action{Kind: aiac.Allreduce, V: 1e-12})
	if rep := aiac.NewReport([]*aiac.Loop{g.l}, coord, false); rep.TaintedRestarts != 1 {
		t.Fatalf("%d tainted restarts before validation; want 1", rep.TaintedRestarts)
	}
	g.l.Reduced(1e-9)
	g.next(10, exit)
	rep := aiac.NewReport([]*aiac.Loop{g.l}, coord, false)
	if rep.Reason != aiac.StopConverged || rep.Restarts != 1 || rep.TaintedRestarts != 0 || rep.ReconfirmRounds != 1 {
		t.Fatalf("report %+v; want converged, 1 restart validated by the reduction", rep)
	}
	if g.prob.updates != 2 {
		t.Fatalf("%d Updates; want 2", g.prob.updates)
	}
}

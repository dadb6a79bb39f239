package aiac_test

// TestSpinBoundaryTies pins what an asynchronous rank does when something
// reaches it while it spins through reused iterations: every external event
// kind that can end a spin, and the two deadlines a spinning rank sets
// itself, each placed strictly inside an iteration and exactly on an
// iteration boundary — scheduled before that iteration began, at the very
// instant it began, and after it began. At a boundary the order of
// same-instant events decides what the rank sees (an arrival just before
// the iteration's completion is incorporated by the next iteration, one
// just after is not), so these are the cases where a lazily stepped rank
// could drift from a per-iteration one.
//
// Every case also runs starved: from holdFrom on, each machine's CPU holds
// one long foreign charge that the rank's next charge preempts before it
// has run, iteration after iteration, so the rank spins over a held charge
// (marcel.CPU.Hold) instead of an idle CPU. There the foreign-submit and
// background-load cases are a second charge, and a load change, reaching
// a spin that holds one.
//
// The oracle is testdata/spin_ties.jsonl, recorded from an engine that
// stepped the cases' iterations through the event queue one by one (the
// starved rows from one that spun only on an idle CPU): each row's digest
// hashes the report and every span, message and wait of the trace, and in
// a starved case when the starving charges were paid. The boundary of each
// case is read off a probe run — the same run with the event's action left
// out — so each row also pins the probe's anchor boundary and stride and
// the instants the event was scheduled at and happened. Rows are recorded
// only from an engine that steps the cases' iterations one by one: to add
// a case, run
//
//	GOLDEN_WRITE=1 go test -run TestSpinBoundaryTies ./internal/aiac
//
// in a clone of a commit whose engine does, with this file copied in, and
// check that the summary it prints moved no recorded row (there the check
// that the probe spins fails, as it should).

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"
	"time"

	"aiac/internal/aiac"
	"aiac/internal/cluster"
	"aiac/internal/des"
	"aiac/internal/env/pm2"
	"aiac/internal/golden"
	"aiac/internal/netsim"
	"aiac/internal/problems"
	"aiac/internal/scenario"
	"aiac/internal/trace"
)

const tiesFile = "testdata/spin_ties.jsonl"

// tieComm wraps an endpoint so the test can play a data arrival into the
// rank's sink and hold one outbound channel busy until it chooses to free
// it, notifying the engine the way the environment does.
type tieComm struct {
	aiac.Comm
	sink func(aiac.DataMsg)
	free func(key int)
	hold int // key held busy while held is set
	held bool
}

func (c *tieComm) SetDataSink(fn func(aiac.DataMsg)) {
	c.sink = fn
	c.Comm.SetDataSink(fn)
}

func (c *tieComm) SetFreeSink(fn func(key int)) {
	c.free = fn
	c.Comm.SetFreeSink(fn)
}

func (c *tieComm) CanSendData(key int) bool {
	if c.held && key == c.hold {
		return false
	}
	return c.Comm.CanSendData(key)
}

func (c *tieComm) TrySendData(p *des.Proc, o aiac.Outgoing) bool {
	if c.held && o.Key == c.hold {
		panic("spin ties: the engine sent on a channel it was told is busy")
	}
	return c.Comm.TrySendData(p, o)
}

func (c *tieComm) release() {
	c.held = false
	if c.free != nil {
		c.free(c.hold)
	}
}

type tieEnv struct {
	aiac.Env
	comms []*tieComm
}

func (e *tieEnv) Comm(r int) aiac.Comm { return e.comms[r] }

// tieRun is one run of the tie cell: three identical machines behind ADSL
// links, whose ranks converge locally within a few dozen iterations and
// then reuse their result for thousands of iterations between arrivals.
type tieRun struct {
	sim  *des.Simulator
	grid *cluster.Grid
	env  *tieEnv
	prob *problems.Linear
	plan *aiac.SendPlan
	tr   *trace.Collector
	rt   *scenario.Runtime
	rep  *aiac.Report

	starvedUntil []des.Time // when each starving charge was paid (starve)
}

// tieAction is what a case does at its instant, in the helper process.
type tieAction func(x *tieRun, p *des.Proc)

// tieSetup prepares a run before it starts (both the probe and the case).
type tieSetup func(x *tieRun)

// runTie runs the cell with a helper process spawned at from that sleeps
// until at and then performs act (nil: the probe, which sleeps and does
// nothing). maxIters 0 keeps the cell's default cap.
func runTie(setup tieSetup, from, at des.Time, act tieAction, maxIters int) *tieRun {
	x := &tieRun{sim: des.New()}
	x.grid = cluster.Homogeneous(x.sim, 3, cluster.P4_2400, netsim.ADSL)
	x.tr = trace.New()
	inner := pm2.MustNew(x.grid, pm2.Sparse, x.tr)
	x.env = &tieEnv{Env: inner}
	for r := 0; r < 3; r++ {
		x.env.comms = append(x.env.comms, &tieComm{Comm: inner.Comm(r)})
	}
	x.prob = problems.NewLinear(600, 6, 0.6, 1)
	x.plan = aiac.BuildSendPlan(x.prob, x.prob.PartitionBounds(3))
	if setup != nil {
		setup(x)
	}
	helper := func(rt *scenario.Runtime) {
		x.sim.SpawnTask("tie", func(p *des.Proc) {
			p.SleepUntilK(at, func() {
				if act != nil {
					act(x, p)
				}
			})
		})
	}
	scen := &scenario.Scenario{Name: "tie", Build: func(*cluster.Grid) []scenario.Event {
		return []scenario.Event{{At: from, Apply: helper}}
	}}
	x.rt = scenario.Deploy(scen, x.grid)
	if maxIters == 0 {
		maxIters = 2000000
	}
	x.rep = aiac.Run(x.grid, x.env, x.prob, aiac.Config{
		Mode: aiac.Async, Eps: 1e-2, MaxIters: maxIters,
		StateHeartbeat: 2 * time.Millisecond,
		Trace:          x.tr, Dynamics: x.rt,
	})
	return x
}

func (x *tieRun) digest() string {
	h := sha256.New()
	r := x.rep
	fmt.Fprintln(h, r.Elapsed, r.Start, r.End, r.ItersPerRank, r.Reason, r.StateMsgs, r.StopRebroadcasts,
		r.Stalled, r.Restarts, r.TaintedRestarts, r.Heartbeats, r.ReconfirmRounds, r.Reconverge)
	fmt.Fprintln(h, r.X)
	fmt.Fprintln(h, x.grid.Net.StatsSnapshot())
	fmt.Fprintln(h, x.tr.Spans)
	fmt.Fprintln(h, x.tr.Msgs)
	fmt.Fprintln(h, x.tr.Waits)
	if x.starvedUntil != nil {
		fmt.Fprintln(h, x.starvedUntil)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// quietAnchor returns an iteration boundary of rank, and the iteration
// length, in the middle of the longest stretch after from in which no
// message left or reached the rank: nothing reaches a rank that reuses its
// result there, so it spins.
func quietAnchor(t *testing.T, tr *trace.Collector, rank int, from des.Time) (des.Time, des.Time) {
	var end des.Time
	for _, s := range tr.Spans {
		if s.Rank == rank {
			end = max(end, s.End)
		}
	}
	acts := []des.Time{from, end}
	for _, m := range tr.Msgs {
		if m.From == rank && m.Sent > from && m.Sent < end {
			acts = append(acts, m.Sent)
		}
		if m.To == rank && m.Recv > from && m.Recv < end {
			acts = append(acts, m.Recv)
		}
	}
	slices.Sort(acts)
	var mid, gap des.Time
	for i := 1; i < len(acts); i++ {
		if g := acts[i] - acts[i-1]; g > gap {
			gap, mid = g, acts[i-1]+g/2
		}
	}
	for _, s := range tr.Spans {
		if s.Rank == rank && s.Kind == trace.Compute && s.Start <= mid && mid < s.End && s.Iters() >= 64 {
			d := (s.End - s.Start) / des.Time(s.Iters())
			return s.Start + (mid-s.Start)/d*d, d
		}
	}
	t.Fatalf("probe: rank %d has no long run in its quietest stretch", rank)
	return 0, 0
}

// itersBy returns how many iterations rank completed by time t.
func itersBy(tr *trace.Collector, rank int, t des.Time) int {
	n := 0
	for _, s := range tr.Spans {
		if s.Rank != rank || s.Kind != trace.Compute {
			continue
		}
		for k := 0; k < s.Iters(); k++ {
			if s.At(k).End <= t {
				n++
			}
		}
	}
	return n
}

// tieWhen places the event relative to the boundary b at the end of an
// iteration of stride d that began at b-d.
type tieWhen struct {
	name     string
	from, at func(b, d des.Time) des.Time
}

var tieWhens = []tieWhen{
	{"inside", func(b, d des.Time) des.Time { return b - 3*d }, func(b, d des.Time) des.Time { return b - d/2 }},
	{"boundary/scheduled-before", func(b, d des.Time) des.Time { return b - d - d/2 }, func(b, d des.Time) des.Time { return b }},
	{"boundary/scheduled-as-it-began", func(b, d des.Time) des.Time { return b - d }, func(b, d des.Time) des.Time { return b }},
	{"boundary/scheduled-after", func(b, d des.Time) des.Time { return b - d/2 }, func(b, d des.Time) des.Time { return b }},
}

const tieRank = 1

// tieKind is one way the outside world reaches a spinning rank.
type tieKind struct {
	name  string
	setup tieSetup
	act   tieAction
	cap   int // iteration cap of the probe and the cases (0: the cell's)
	// anchor picks the boundary from the probe and returns it with the
	// stride and, when it sets one, the iteration cap the cases run under.
	anchor func(t *testing.T, probe *tieRun) (b, d des.Time, maxIters int)
}

// quiet anchors in the tie rank's quietest stretch.
func quiet(t *testing.T, probe *tieRun) (des.Time, des.Time, int) {
	b, d := quietAnchor(t, probe.tr, tieRank, 0)
	return b, d, 0
}

func (x *tieRun) target(to int) aiac.PlanTarget {
	for _, owner := range []int{0, 2} {
		for _, tg := range x.plan.Targets[owner] {
			if tg.To == to {
				return tg
			}
		}
	}
	panic("spin ties: rank has no inbound channel")
}

func openStops(x *tieRun, _ *des.Proc) {
	for r := range x.env.comms {
		x.env.comms[r].Stop().Open()
	}
}

// holdFrom is when the channel-free cases start holding rank 1's first
// outbound channel busy, and the starved cases their CPUs (after the ranks
// have converged once).
const holdFrom = 10 * time.Millisecond

// starveCharge is the foreign charge each CPU of a starved case takes on
// at holdFrom: long enough to be still owed when the run ends.
const starveCharge = 10 * time.Second

// starve submits starveCharge on every machine at holdFrom, from a thread
// of its own per machine, and records when each is paid.
func starve(x *tieRun) {
	x.starvedUntil = make([]des.Time, len(x.grid.Machines))
	for i, m := range x.grid.Machines {
		x.sim.SpawnTask("starve", func(p *des.Proc) {
			p.SleepUntilK(holdFrom, func() {
				m.CPU.UseK(p, starveCharge, func() { x.starvedUntil[i] = p.Now() })
			})
		})
	}
}

// starved returns k with every CPU starved from holdFrom on.
func starved(k tieKind) tieKind {
	setup := k.setup
	k.name = "starved/" + k.name
	k.setup = func(x *tieRun) {
		starve(x)
		if setup != nil {
			setup(x)
		}
	}
	return k
}

var tieKinds = []tieKind{
	{name: "data-arrival", anchor: quiet, act: func(x *tieRun, _ *des.Proc) {
		tg := x.target(tieRank)
		vals := make([]float64, tg.Seg.Len())
		for i := range vals {
			vals[i] = 0.25
		}
		x.env.comms[tieRank].sink(aiac.DataMsg{From: 0, Key: tg.Key, Lo: tg.Seg.Lo, Values: vals})
	}},
	// The channel is held from holdFrom on, so the probe spins behind it
	// until the cap; the case frees it on the anchor.
	{name: "channel-free",
		setup: func(x *tieRun) {
			x.sim.Schedule(holdFrom, func() {
				c := x.env.comms[tieRank]
				c.hold, c.held = x.plan.Targets[tieRank][0].Key, true
			})
		},
		anchor: func(t *testing.T, probe *tieRun) (des.Time, des.Time, int) {
			b, d := quietAnchor(t, probe.tr, tieRank, holdFrom)
			return b, d, 0
		},
		cap: 400000,
		act: func(x *tieRun, _ *des.Proc) { x.env.comms[tieRank].release() }},
	{name: "stop-open", anchor: quiet, act: openStops},
	{name: "crash", anchor: quiet, act: func(x *tieRun, p *des.Proc) {
		x.rt.Crash(tieRank)
		p.SleepK(3*time.Millisecond, func() { x.rt.Restart(tieRank) })
	}},
	{name: "background-load", anchor: quiet, act: func(x *tieRun, _ *des.Proc) {
		x.grid.Machines[tieRank].CPU.SetBackgroundLoad(3)
	}},
	{name: "foreign-submit", anchor: quiet, act: func(x *tieRun, p *des.Proc) {
		x.grid.Machines[tieRank].CPU.UseK(p, 20*time.Microsecond, func() {})
	}},
	// The iteration cap lands on the anchor boundary of the rank that is
	// furthest ahead; the stop opening there decides whether the run ends
	// capped or stopped.
	{name: "max-iters+stop-open", act: openStops,
		anchor: func(t *testing.T, probe *tieRun) (des.Time, des.Time, int) {
			for lead := 0; lead < 3; lead++ {
				b, d := quietAnchor(t, probe.tr, lead, 0)
				m := itersBy(probe.tr, lead, b)
				ahead := true
				for r := 0; r < 3; r++ {
					if r != lead && itersBy(probe.tr, r, b) >= m {
						ahead = false
					}
				}
				if ahead {
					return b, d, m
				}
			}
			t.Fatal("probe: no rank leads the others in its quietest stretch")
			return 0, 0, 0
		}},
	// A heartbeat falls due on the anchor boundary; the load change there
	// decides what the heartbeat's pack charge costs.
	{name: "heartbeat+background-load",
		act: func(x *tieRun, _ *des.Proc) { x.grid.Machines[tieRank].CPU.SetBackgroundLoad(3) },
		anchor: func(t *testing.T, probe *tieRun) (des.Time, des.Time, int) {
			// The heartbeat after the longest silence of the rank: it
			// left at the end of the compute run that ends last before
			// its transmit.
			var b, d, quietest des.Time
			for _, m := range probe.tr.Msgs {
				if m.From != tieRank || m.Kind != trace.MsgState || m.Iter < 3 {
					continue
				}
				var at trace.Span
				for _, s := range probe.tr.Spans {
					if s.Rank == tieRank && s.Kind == trace.Compute && s.End <= m.Sent && s.End > at.End {
						at = s
					}
				}
				var last des.Time
				for _, o := range probe.tr.Msgs {
					if o.From == tieRank && o.Sent < at.End {
						last = max(last, o.Sent)
					}
					if o.To == tieRank && o.Recv < at.End {
						last = max(last, o.Recv)
					}
				}
				if at.Iters() >= 64 && at.End-last > quietest {
					quietest, b, d = at.End-last, at.End, (at.End-at.Start)/des.Time(at.Iters())
				}
			}
			if quietest == 0 {
				t.Fatal("probe: no heartbeat of the rank ends a long run")
			}
			return b, d, 0
		}},
}

func TestSpinBoundaryTies(t *testing.T) {
	var rows []golden.Row
	kinds := slices.Clone(tieKinds)
	for _, k := range tieKinds {
		kinds = append(kinds, starved(k))
	}
	for _, k := range kinds {
		probe := runTie(k.setup, 0, 0, nil, k.cap)
		if 10*probe.sim.Events() > uint64(probe.rep.TotalIters()) {
			// The cases below mean something only if the ranks spin.
			t.Errorf("%s: probe ran %d events over %d iterations; the cell no longer spins", k.name, probe.sim.Events(), probe.rep.TotalIters())
		}
		b, d, maxIters := k.anchor(t, probe)
		for r, at := range probe.starvedUntil {
			if at <= b {
				t.Fatalf("%s: probe's starving charge on machine %d was paid at %d, before the anchor %d", k.name, r, at, b)
			}
		}
		if maxIters == 0 {
			maxIters = k.cap
		}
		for _, w := range tieWhens {
			from, at := w.from(b, d), w.at(b, d)
			x := runTie(k.setup, from, at, k.act, maxIters)
			rows = append(rows, golden.Row{Key: k.name + "/" + w.name, Fields: []golden.Field{
				{Name: "digest", Value: x.digest()}, {Name: "anchor_ns", Value: b}, {Name: "stride_ns", Value: d},
				{Name: "scheduled_at_ns", Value: from}, {Name: "at_ns", Value: at},
			}})
		}
	}
	golden.Check(t, tiesFile, rows)
}

// Package scenario is the grid-dynamics subsystem: it applies a scripted,
// deterministic timeline of perturbation events to a running simulation —
// link bandwidth/latency flaps, per-node background load, node crash and
// restart with state loss, bursty message drops — turning the static grids
// of internal/cluster into the time-varying platforms the AIAC robustness
// story is really about.
//
// A Scenario is a named timeline builder; Deploy instantiates it over a
// grid as a Runtime and spawns a scenario-driver process on the grid's
// simulator that sleeps from event to event and applies each one. All
// mutations go through the mutable-at-virtual-time parameters of
// internal/netsim (SetUplink, SetLANs, SetLoss, SetDown) and internal/marcel
// (SetBackgroundLoad), so messages in flight and CPU slices in progress keep
// their original schedule — exactly the first-order semantics of a real
// network degrading under a running application.
//
// Crash/restart is cooperative with the engine: the Runtime tracks a crash
// epoch per rank, and the engine (internal/aiac) polls it at iteration
// boundaries, parks the rank's process while the node is down, and performs
// the state loss on restart. The network side is immediate — messages from
// or to a down node are dropped, including messages in flight at crash time.
//
// Timelines are finite: every preset restores nominal conditions by its
// horizon, so a simulation's event queue still drains and runs remain
// deterministic. Perturbation windows are placed on a roughly geometric
// schedule from tens of milliseconds to two minutes of virtual time so that
// they intersect both the short local-cluster runs and the long WAN runs of
// the experiment matrix.
package scenario

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"aiac/internal/cluster"
	"aiac/internal/des"
	"aiac/internal/netsim"
)

// Event is one timeline entry: at virtual time At, Apply mutates the
// running simulation through the Runtime.
type Event struct {
	At    des.Time
	Desc  string
	Apply func(rt *Runtime)
}

// Scenario is a named, grid-independent recipe for a perturbation timeline.
type Scenario struct {
	Name string
	Desc string
	// Build produces the timeline for a concrete grid (a recipe may need
	// the grid's shape: which site has the weakest uplink, which ranks
	// exist to crash). The returned events need not be sorted.
	Build func(g *cluster.Grid) []Event
}

// Runtime is a scenario instantiated over a grid. It is the engine-facing
// handle (crash epochs, up-gates, perturbation times) and the preset-facing
// mutation surface (scaled links, loads, loss).
type Runtime struct {
	Grid     *cluster.Grid
	Scenario *Scenario

	events  []Event
	applied int
	base    des.Time // virtual time of Deploy; event times are relative to it

	epochs  []int       // per-rank crash count
	gates   []*des.Gate // per-rank restart gate; non-nil while down
	watches []func()    // per-rank WatchEpoch callback

	// nominal link state captured at Deploy, so degradations are always
	// expressed relative to the undisturbed grid and never compound.
	nominalUplinks []netsim.LinkClass
	nominalLANs    [][]netsim.LinkClass
}

// Deploy instantiates the scenario over the grid and, if the timeline is
// non-empty, spawns the scenario-driver process at the grid's current
// virtual time. Call it before spawning the workload so time-zero events
// apply first.
func Deploy(s *Scenario, g *cluster.Grid) *Runtime {
	n := g.Size()
	rt := &Runtime{
		Grid:     g,
		Scenario: s,
		epochs:   make([]int, n),
		gates:    make([]*des.Gate, n),
		watches:  make([]func(), n),
	}
	for site := 0; site < g.Net.Sites(); site++ {
		rt.nominalUplinks = append(rt.nominalUplinks, g.Net.Uplink(site))
		rt.nominalLANs = append(rt.nominalLANs, g.Net.LANs(site))
	}
	rt.base = g.Sim.Now()
	if s.Build != nil {
		rt.events = s.Build(g)
		sort.SliceStable(rt.events, func(i, j int) bool { return rt.events[i].At < rt.events[j].At })
	}
	if len(rt.events) > 0 {
		g.Sim.SpawnTask("scenario:"+s.Name, func(p *des.Proc) { rt.driveK(p, 0) })
	}
	return rt
}

// DeployEventLoop is Deploy. The name stays only because the files under
// benchmark/ compile against it; the next benchmark-only PR deletes it
// (ROADMAP item 4(b)).
func DeployEventLoop(s *Scenario, g *cluster.Grid) *Runtime { return Deploy(s, g) }

// driveK is the driver process from event i on: sleep until the event is
// due, apply it, go on to the next. SleepUntilK always goes through the
// scheduler (even for past timestamps), so the recursion never deepens the
// host stack.
func (rt *Runtime) driveK(p *des.Proc, i int) {
	if i == len(rt.events) {
		return
	}
	ev := rt.events[i]
	p.SleepUntilK(rt.base+ev.At, func() {
		ev.Apply(rt)
		rt.applied++
		rt.driveK(p, i+1)
	})
}

// Events returns the number of timeline events applied so far.
func (rt *Runtime) Events() int { return rt.applied }

// Horizon returns the time of the last timeline event (zero for static).
func (rt *Runtime) Horizon() des.Time {
	if len(rt.events) == 0 {
		return 0
	}
	return rt.events[len(rt.events)-1].At
}

// --- Engine-facing surface (implements aiac.Dynamics) ---

// Epoch returns the crash count of a rank. The engine snapshots it at the
// start of a solve and treats any later change as "this rank crashed and
// restarted": it parks until the node is up and then performs the state
// loss.
func (rt *Runtime) Epoch(rank int) int { return rt.epochs[rank] }

// WaitUpK runs k in p once the rank's node is up — synchronously when it
// already is. Called by the rank's own engine process.
func (rt *Runtime) WaitUpK(p *des.Proc, rank int, k func()) {
	if rt.gates[rank] == nil {
		k()
		return
	}
	rt.gates[rank].WaitK(p, func() { rt.WaitUpK(p, rank, k) })
}

// WatchEpoch makes rank's next crash call fn first; nil withdraws it.
func (rt *Runtime) WatchEpoch(rank int, fn func()) { rt.watches[rank] = fn }

// LastEventBefore returns the absolute virtual time of the latest timeline
// event at or before t, and whether there is one — the reference instant
// for time-to-reconverge measurements.
func (rt *Runtime) LastEventBefore(t des.Time) (des.Time, bool) {
	var at des.Time
	found := false
	for _, ev := range rt.events {
		if rt.base+ev.At > t {
			break
		}
		at, found = rt.base+ev.At, true
	}
	return at, found
}

// --- Preset-facing mutation surface ---

// PartitionSite cuts (true) or restores (false) a site's uplink: traffic
// crossing the site boundary is dropped while partitioned, including
// messages in flight, but intra-site traffic and the machines themselves
// are untouched — this is a network partition, not a failure.
func (rt *Runtime) PartitionSite(site int, partitioned bool) {
	rt.Grid.Net.SetPartitioned(site, partitioned)
}

// Crash marks a rank's node down: its crash epoch increments, and the
// network drops traffic from and to it (including messages in flight).
// Crashing a rank that is already down is a no-op.
func (rt *Runtime) Crash(rank int) {
	if rt.gates[rank] != nil {
		return
	}
	if f := rt.watches[rank]; f != nil {
		rt.watches[rank] = nil
		f()
	}
	rt.epochs[rank]++
	rt.gates[rank] = des.NewGate(rt.Grid.Sim)
	rt.Grid.Net.SetDown(rt.Grid.Machines[rank].Node, true)
}

// Restart brings a crashed rank's node back up and releases the engine
// process parked in WaitUpK. The engine performs the state loss.
func (rt *Runtime) Restart(rank int) {
	g := rt.gates[rank]
	if g == nil {
		return
	}
	rt.gates[rank] = nil
	rt.Grid.Net.SetDown(rt.Grid.Machines[rank].Node, false)
	g.Open()
}

// ScaleUplink swaps site's uplink for a degraded copy of its *nominal*
// uplink: bandwidth divided by bwDiv, latency multiplied by latMul.
func (rt *Runtime) ScaleUplink(site int, bwDiv, latMul float64) {
	rt.Grid.Net.SetUplink(site, rt.nominalUplinks[site].Scaled(bwDiv, latMul))
}

// RestoreUplink restores site's nominal uplink.
func (rt *Runtime) RestoreUplink(site int) {
	rt.Grid.Net.SetUplink(site, rt.nominalUplinks[site])
}

// ScaleLANs swaps all of site's LANs for degraded copies of the nominal
// ones (names preserved, so egress pipes keep their identity).
func (rt *Runtime) ScaleLANs(site int, bwDiv, latMul float64) {
	lans := make([]netsim.LinkClass, len(rt.nominalLANs[site]))
	for i, lc := range rt.nominalLANs[site] {
		lans[i] = lc.Scaled(bwDiv, latMul)
	}
	rt.Grid.Net.SetLANs(site, lans)
}

// RestoreLANs restores site's nominal LAN list.
func (rt *Runtime) RestoreLANs(site int) {
	rt.Grid.Net.SetLANs(site, append([]netsim.LinkClass(nil), rt.nominalLANs[site]...))
}

// SetLoad sets the background-load multiplier of one rank's CPU.
func (rt *Runtime) SetLoad(rank int, factor float64) {
	rt.Grid.Machines[rank].CPU.SetBackgroundLoad(factor)
}

// SetLoss sets the network's drop rate for loss-eligible messages.
func (rt *Runtime) SetLoss(rate float64) { rt.Grid.Net.SetLoss(rate) }

// --- Preset library ---

const ms = time.Millisecond

// burstWindows are the shared perturbation windows of the bursty presets:
// geometrically spaced below ten seconds so a few windows land inside even
// the shortest cells of the experiment matrix (~50 ms on the local grid at
// small sizes), then a periodic 6 s-degraded / 14 s-nominal duty cycle out
// to the four-minute horizon, so the storm outlives even the slowest
// synchronous WAN runs: a version that finishes sooner is exposed to fewer
// bursts, which is part of the robustness being measured. The periodic tail matters for the asynchronous
// robustness measurement: convergence confirmation needs a quiet stretch of
// a few seconds, and a guaranteed 15 s nominal gap after every burst lets a
// recovered AIAC run confirm whenever it is ready, while the synchronous
// versions pay full price inside every degraded window.
func burstWindows() [][2]des.Time {
	w := [][2]des.Time{
		{20 * ms, 60 * ms},
		{150 * ms, 350 * ms},
		{700 * ms, 1200 * ms},
		{2500 * ms, 4000 * ms},
		{7 * time.Second, 9 * time.Second},
	}
	for start := 18 * time.Second; start < 235*time.Second; start += 20 * time.Second {
		w = append(w, [2]des.Time{start, start + 6*time.Second})
	}
	return w
}

// weakestSite returns the site whose uplink has the lowest outbound
// bandwidth (the ADSL site on the paper's second grid), preferring later
// sites on ties so multi-site grids with uniform uplinks degrade a
// non-coordinator site.
func weakestSite(g *cluster.Grid) int {
	site := 0
	for s := 1; s < g.Net.Sites(); s++ {
		if g.Net.Uplink(s).UpBps <= g.Net.Uplink(site).UpBps {
			site = s
		}
	}
	return site
}

// Static is the do-nothing scenario: the grid of the paper's original
// static sweep. Every degradation metric is measured against it.
func Static() *Scenario {
	return &Scenario{
		Name: "static",
		Desc: "no perturbations (the paper's original grids)",
	}
}

// FlakyADSL makes the weakest uplink — the ADSL site on the 4-site grid —
// flap: in repeated burst windows the site *partitions* (the modem drops
// the connection; traffic from and to its nodes is lost), then reconnects.
// The machines keep computing and keep their state throughout — this is a
// link failure, not a node failure. A 2004 SPMD middleware has no recovery
// protocol for a broken connection: the synchronous versions lose exchange
// messages in the first burst and deadlock (stall detection reports them),
// while the asynchronous versions iterate through the partition on stale
// data and reconverge once the link returns — the paper's robustness claim
// in its sharpest form.
//
// Partition windows start at 2.5 s so they never swallow a solve's entry
// barrier (the barrier protocol, like the middlewares it models, is not
// partition-tolerant). On single-site grids there is no uplink to cut, so
// the site's LANs flap in latency instead (×200 in-window) over the full
// window schedule, including the sub-second windows that intersect short
// local runs.
func FlakyADSL() *Scenario {
	return &Scenario{
		Name: "flaky-adsl",
		Desc: "weakest uplink flaps: site partitioned in bursts (LAN latency x200 on single-site grids)",
		Build: func(g *cluster.Grid) []Event {
			site := weakestSite(g)
			var evs []Event
			if g.Net.Sites() == 1 {
				for _, w := range burstWindows() {
					evs = append(evs,
						Event{At: w[0], Desc: "LAN degrades", Apply: func(rt *Runtime) { rt.ScaleLANs(site, 1, 200) }},
						Event{At: w[1], Desc: "LAN restores", Apply: func(rt *Runtime) { rt.RestoreLANs(site) }},
					)
				}
				return evs
			}
			for _, w := range burstWindows() {
				if w[0] < 2500*ms {
					continue // spare the entry barrier
				}
				evs = append(evs,
					Event{At: w[0], Desc: "uplink drops", Apply: func(rt *Runtime) { rt.PartitionSite(site, true) }},
					Event{At: w[1], Desc: "uplink returns", Apply: func(rt *Runtime) { rt.PartitionSite(site, false) }},
				)
			}
			return evs
		},
	}
}

// DiurnalLoad applies a background-load curve to the odd ranks — the
// machines that "belong to someone else" on a desktop grid — rising to 3x
// slowdown and back, over a fast cycle (sub-second, for local runs) and a
// slow cycle (tens of seconds, for WAN runs).
func DiurnalLoad() *Scenario {
	return &Scenario{
		Name: "diurnal-load",
		Desc: "background load on odd ranks ramps 1x..3x..1x (two cycles)",
		Build: func(g *cluster.Grid) []Event {
			curve := []struct {
				at     des.Time
				factor float64
			}{
				// fast cycle
				{30 * ms, 1.8}, {120 * ms, 3}, {400 * ms, 1.8}, {900 * ms, 1},
				// slow cycle
				{5 * time.Second, 1.5}, {15 * time.Second, 2.2},
				{30 * time.Second, 3}, {60 * time.Second, 2.2},
				{90 * time.Second, 1.5}, {120 * time.Second, 1},
			}
			var evs []Event
			for _, step := range curve {
				f := step.factor
				evs = append(evs, Event{
					At:   step.at,
					Desc: fmt.Sprintf("background load %.1fx", f),
					Apply: func(rt *Runtime) {
						for r := 1; r < rt.Grid.Size(); r += 2 {
							rt.SetLoad(r, f)
						}
					},
				})
			}
			return evs
		},
	}
}

// NodeChurn crashes and restarts non-coordinator ranks (state is lost; the
// engine re-detects convergence after each restart). Rank 0 is never
// crashed: it hosts the centralized convergence coordinator, and the paper's
// detection protocol has no coordinator election. The earliest burst
// windows are skipped so churn never collides with the solve's entry
// barrier (a crash drops the barrier's control messages and would stall
// even the asynchronous versions before their first iteration).
func NodeChurn() *Scenario {
	return &Scenario{
		Name: "node-churn",
		Desc: "non-coordinator ranks crash and restart with state loss",
		Build: func(g *cluster.Grid) []Event {
			n := g.Size()
			if n < 2 {
				return nil
			}
			victim := func(i int) int { // deterministic non-zero rank rotation
				return 1 + (i*(n/2+1))%(n-1)
			}
			var evs []Event
			for i, w := range burstWindows()[2:] {
				r := victim(i)
				evs = append(evs,
					Event{At: w[0], Desc: fmt.Sprintf("rank %d crashes", r),
						Apply: func(rt *Runtime) { rt.Crash(r) }},
					Event{At: w[1], Desc: fmt.Sprintf("rank %d restarts", r),
						Apply: func(rt *Runtime) { rt.Restart(r) }},
				)
			}
			return evs
		},
	}
}

// LossyWAN drops a fraction of data-plane messages in bursts (control
// traffic stays reliable, as over TCP). Asynchronous iterations shrug off a
// lost update — the next send carries newer values — while the synchronous
// exchange waits forever for a message that will never arrive.
func LossyWAN() *Scenario {
	return &Scenario{
		Name: "lossy-wan",
		Desc: "bursty data-message loss (30% in windows)",
		Build: func(g *cluster.Grid) []Event {
			var evs []Event
			for _, w := range burstWindows() {
				evs = append(evs,
					Event{At: w[0], Desc: "loss burst begins",
						Apply: func(rt *Runtime) { rt.SetLoss(0.3) }},
					Event{At: w[1], Desc: "loss burst ends",
						Apply: func(rt *Runtime) { rt.SetLoss(0) }},
				)
			}
			return evs
		},
	}
}

// presets returns the library in presentation order (static first: it is
// the baseline every degradation metric references).
func presets() []*Scenario {
	return []*Scenario{Static(), FlakyADSL(), DiurnalLoad(), NodeChurn(), LossyWAN()}
}

// Names lists the preset scenario names in presentation order.
func Names() []string {
	var out []string
	for _, s := range presets() {
		out = append(out, s.Name)
	}
	return out
}

// ByName resolves a preset scenario.
func ByName(name string) (*Scenario, error) {
	for _, s := range presets() {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown scenario %q (known: %s)", name, strings.Join(Names(), ", "))
}

// Describe renders the preset library as a usage table.
func Describe() string {
	var b strings.Builder
	for _, s := range presets() {
		fmt.Fprintf(&b, "  %-14s %s\n", s.Name, s.Desc)
	}
	return b.String()
}

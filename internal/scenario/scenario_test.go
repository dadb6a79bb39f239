package scenario

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"aiac/internal/cluster"
	"aiac/internal/des"
)

func TestPresetRegistry(t *testing.T) {
	names := Names()
	if len(names) == 0 || names[0] != "static" {
		t.Fatalf("preset order must start with static: %v", names)
	}
	for _, name := range names {
		s, err := ByName(name)
		if err != nil || s.Name != name {
			t.Fatalf("ByName(%q) = %v, %v", name, s, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if Describe() == "" {
		t.Fatal("empty preset description table")
	}
}

func TestStaticHasNoEvents(t *testing.T) {
	sim := des.New()
	g := cluster.FourSiteADSL(sim, 8)
	rt := Deploy(Static(), g)
	sim.Run()
	if rt.Events() != 0 || rt.Horizon() != 0 {
		t.Fatalf("static scenario applied %d events", rt.Events())
	}
	if sim.Now() != 0 {
		t.Fatalf("static scenario advanced the clock to %v", sim.Now())
	}
}

func TestDriverAppliesTimelineInOrder(t *testing.T) {
	sim := des.New()
	g := cluster.LocalHeterogeneous(sim, 4)
	var applied []des.Time
	s := &Scenario{
		Name: "test",
		Build: func(*cluster.Grid) []Event {
			record := func(rt *Runtime) { applied = append(applied, rt.Grid.Sim.Now()) }
			// Deliberately unsorted: Deploy must order the timeline.
			return []Event{
				{At: 30 * time.Millisecond, Apply: record},
				{At: 10 * time.Millisecond, Apply: record},
				{At: 20 * time.Millisecond, Apply: record},
			}
		},
	}
	rt := Deploy(s, g)
	sim.Run()
	want := []des.Time{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	if len(applied) != len(want) {
		t.Fatalf("applied %d events, want %d", len(applied), len(want))
	}
	for i := range want {
		if applied[i] != want[i] {
			t.Fatalf("event %d applied at %v, want %v", i, applied[i], want[i])
		}
	}
	if rt.Events() != 3 {
		t.Fatalf("Events() = %d", rt.Events())
	}
	if h := rt.Horizon(); h != 30*time.Millisecond {
		t.Fatalf("Horizon() = %v", h)
	}
}

func TestCrashRestartEpochAndGate(t *testing.T) {
	sim := des.New()
	g := cluster.LocalHeterogeneous(sim, 3)
	rt := Deploy(Static(), g)

	if rt.Epoch(1) != 0 {
		t.Fatalf("initial epoch = %d", rt.Epoch(1))
	}
	var resumedAt des.Time
	sim.SpawnTask("waiter", func(p *des.Proc) {
		p.SleepK(2*time.Millisecond, func() { // crash happens at 1ms
			rt.WaitUpK(p, 1, func() { resumedAt = p.Now() })
		})
	})
	sim.Schedule(time.Millisecond, func() {
		rt.Crash(1)
		rt.Crash(1) // double crash is a no-op
	})
	sim.Schedule(5*time.Millisecond, func() { rt.Restart(1) })
	sim.Run()

	if rt.Epoch(1) != 1 {
		t.Fatalf("epoch after one crash = %d, want 1", rt.Epoch(1))
	}
	if resumedAt != 5*time.Millisecond {
		t.Fatalf("WaitUpK resumed at %v, want 5ms", resumedAt)
	}
	if g.Net.IsDown(g.Machines[1].Node) {
		t.Fatal("node still down after Restart")
	}
}

func TestScaleAndRestoreAreRelativeToNominal(t *testing.T) {
	sim := des.New()
	g := cluster.FourSiteADSL(sim, 8)
	rt := Deploy(Static(), g)
	site := weakestSite(g)
	nominal := g.Net.Uplink(site)

	rt.ScaleUplink(site, 2, 16)
	rt.ScaleUplink(site, 2, 16) // repeated events must not compound
	got := g.Net.Uplink(site)
	if got.UpBps != nominal.UpBps/2 || got.Latency != 16*nominal.Latency {
		t.Fatalf("scaled uplink = %+v", got)
	}
	if got.Name != nominal.Name {
		t.Fatalf("scaling renamed the link to %q", got.Name)
	}
	rt.RestoreUplink(site)
	if g.Net.Uplink(site) != nominal {
		t.Fatalf("restore did not recover the nominal uplink")
	}

	lans := g.Net.LANs(0)
	rt.ScaleLANs(0, 4, 4)
	if g.Net.LANs(0)[0].UpBps != lans[0].UpBps/4 {
		t.Fatal("LAN not scaled")
	}
	rt.RestoreLANs(0)
	if g.Net.LANs(0)[0] != lans[0] {
		t.Fatal("LANs not restored")
	}
}

func TestWeakestSitePrefersADSL(t *testing.T) {
	sim := des.New()
	g := cluster.FourSiteADSL(sim, 8)
	if s := weakestSite(g); s != 3 {
		t.Fatalf("weakest site = %d, want the ADSL site (3)", s)
	}
}

func TestLastEventBeforeIsAbsolute(t *testing.T) {
	sim := des.New()
	g := cluster.LocalHeterogeneous(sim, 2)
	// Deploy after the clock has advanced: event times are relative to
	// deploy, LastEventBefore reports absolute times.
	sim.Schedule(100*time.Millisecond, func() {})
	sim.Run()
	s := &Scenario{
		Name: "test",
		Build: func(*cluster.Grid) []Event {
			return []Event{{At: 10 * time.Millisecond, Apply: func(*Runtime) {}}}
		},
	}
	rt := Deploy(s, g)
	sim.Run()
	at, ok := rt.LastEventBefore(200 * time.Millisecond)
	if !ok || at != 110*time.Millisecond {
		t.Fatalf("LastEventBefore = %v, %v; want 110ms", at, ok)
	}
	if _, ok := rt.LastEventBefore(105 * time.Millisecond); ok {
		t.Fatal("found an event before any was applied")
	}
}

func TestNodeChurnNeverCrashesCoordinator(t *testing.T) {
	sim := des.New()
	g := cluster.FourSiteADSL(sim, 8)
	evs := NodeChurn().Build(g)
	if len(evs) == 0 {
		t.Fatal("no churn events")
	}
	rt := Deploy(Static(), g)
	for _, ev := range evs {
		ev.Apply(rt)
		if g.Net.IsDown(g.Machines[0].Node) {
			t.Fatal("churn crashed rank 0, the convergence coordinator")
		}
	}
}

func TestPresetTimelinesAreFinite(t *testing.T) {
	// Every preset's timeline must drain: a driver that schedules forever
	// would keep any simulation from terminating.
	for _, name := range Names() {
		s, _ := ByName(name)
		sim := des.New()
		g := cluster.FourSiteADSL(sim, 8)
		Deploy(s, g)
		end := sim.Run()
		if end > 10*time.Minute {
			t.Fatalf("%s: timeline runs to %v", name, end)
		}
	}
}

// sameTimeScenario builds a timeline with three distinct batches of events
// sharing one virtual instant each, listed out of build order across
// batches but in a meaningful order within each batch — the shape that
// exposes any driver that breaks the stable ordering of simultaneous
// events.
func sameTimeScenario(trace *[]string) *Scenario {
	rec := func(name string) func(*Runtime) {
		return func(rt *Runtime) {
			*trace = append(*trace, fmt.Sprintf("%v:%s", rt.Grid.Sim.Now(), name))
		}
	}
	return &Scenario{
		Name: "same-time",
		Build: func(*cluster.Grid) []Event {
			return []Event{
				{At: 20 * time.Millisecond, Desc: "b1", Apply: rec("b1")},
				{At: 10 * time.Millisecond, Desc: "a1", Apply: rec("a1")},
				{At: 20 * time.Millisecond, Desc: "b2", Apply: rec("b2")},
				{At: 10 * time.Millisecond, Desc: "a2", Apply: rec("a2")},
				{At: 10 * time.Millisecond, Desc: "a3", Apply: rec("a3")},
				{At: 30 * time.Millisecond, Desc: "c1", Apply: rec("c1")},
			}
		},
	}
}

// Events scheduled at the same virtual instant apply in build order (the
// sort is stable).
func TestSameVirtualTimeEventsApplyInBuildOrder(t *testing.T) {
	want := []string{
		"10ms:a1", "10ms:a2", "10ms:a3",
		"20ms:b1", "20ms:b2",
		"30ms:c1",
	}
	sim := des.New()
	g := cluster.LocalHeterogeneous(sim, 4)
	var trace []string
	rt := Deploy(sameTimeScenario(&trace), g)
	sim.Run()
	if rt.Events() != len(want) {
		t.Fatalf("driver applied %d events, want %d", rt.Events(), len(want))
	}
	if !reflect.DeepEqual(trace, want) {
		t.Errorf("driver order:\n got %v\nwant %v", trace, want)
	}
}

// The driver goes back through the scheduler between two events, also
// between two of the same instant: a workload process sampling the clock at
// the very instants the timeline fires sees the instant's first event
// applied, and the rest only at its next look. This pins the points of a
// running simulation at which a scenario perturbs it.
func TestDriverYieldsBetweenSameInstantEvents(t *testing.T) {
	type obs struct {
		At      des.Time
		Applied int
	}
	sim := des.New()
	g := cluster.LocalHeterogeneous(sim, 4)
	var trace []string
	rt := Deploy(sameTimeScenario(&trace), g)
	var seen []obs
	sim.SpawnTask("workload", func(p *des.Proc) {
		var sample func(i int)
		sample = func(i int) {
			if i == 5 {
				return
			}
			p.SleepK(10*time.Millisecond, func() {
				seen = append(seen, obs{p.Now(), rt.Events()})
				sample(i + 1)
			})
		}
		sample(0)
	})
	sim.Run()
	const ms = time.Millisecond
	want := []obs{{10 * ms, 1}, {20 * ms, 3}, {30 * ms, 5}, {40 * ms, 6}, {50 * ms, 6}}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("workload observed perturbation progress %v, want %v", seen, want)
	}
}

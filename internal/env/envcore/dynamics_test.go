package envcore

// Receive-model edge cases under mid-run parameter changes: the
// grid-dynamics subsystem (internal/scenario) mutates links, loss and node
// liveness while messages are in flight and receive threads hold messages,
// so the middleware machinery must stay well-defined across every such
// interleaving.

import (
	"fmt"
	"testing"
	"time"

	"aiac/internal/aiac"
	"aiac/internal/cluster"
	"aiac/internal/des"
	"aiac/internal/marcel"
	"aiac/internal/netsim"
)

// newTwoSiteEnv builds a 2-node grid whose nodes sit on different sites, so
// traffic crosses a mutable uplink.
func newTwoSiteEnv(t *testing.T, model RecvModel) (*des.Simulator, *cluster.Grid, *Env) {
	t.Helper()
	sim := des.New()
	grid := &cluster.Grid{Sim: sim, Name: "twosite"}
	grid.Net = netsim.New(sim, []netsim.Site{
		{Name: "a", Uplink: netsim.Ethernet10, LANs: []netsim.LinkClass{netsim.Ethernet100}},
		{Name: "b", Uplink: netsim.Ethernet10, LANs: []netsim.LinkClass{netsim.Ethernet100}},
	})
	for i := 0; i < 2; i++ {
		node := grid.Net.AddNode(i)
		grid.Machines = append(grid.Machines, &cluster.Machine{
			Node:  node,
			Class: cluster.P4_2400,
			CPU:   marcel.NewCPU(sim, fmt.Sprintf("cpu%d", i), cluster.P4_2400.MFlops),
		})
	}
	env, err := New(grid, testOpts(model))
	if err != nil {
		t.Fatal(err)
	}
	return sim, grid, env
}

func TestInFlightMessageSurvivesLinkDegradation(t *testing.T) {
	// A data message already on the wire when the uplink degrades keeps
	// its send-time schedule; the next message on the channel pays the
	// degraded path.
	run := func(degrade bool) (first, second des.Time) {
		arrivals := make(map[int]des.Time)
		sim, grid, env := newTwoSiteEnv(t, RecvSingleThread)
		env.Comm(1).SetDataSink(func(m aiac.DataMsg) { arrivals[m.Iter] = sim.Now() })
		big := make([]float64, 5000) // 40 KB: ~32 ms on the 10 Mb uplink
		sim.SpawnTask("sender", func(p *des.Proc) {
			env.Comm(0).TrySendData(p, aiac.Outgoing{To: 1, Key: 1, Iter: 0, Values: big})
			second := func() {
				env.Comm(0).TrySendData(p, aiac.Outgoing{To: 1, Key: 1, Iter: 1, Values: big})
			}
			if degrade {
				// Degrade while message 0 is in flight.
				p.SleepK(time.Millisecond, func() {
					grid.Net.SetUplink(0, grid.Net.Uplink(0).Scaled(10, 10))
					p.SleepK(199*time.Millisecond, second) // past delivery of message 0
				})
			} else {
				p.SleepK(200*time.Millisecond, second)
			}
		})
		sim.Run()
		if arrivals[0] == 0 || arrivals[1] == 0 {
			t.Fatalf("missing deliveries: %v", arrivals)
		}
		return arrivals[0], arrivals[1]
	}
	f0, s0 := run(false)
	f1, s1 := run(true)
	if f1 != f0 {
		t.Fatalf("in-flight message rescheduled by the degradation: %v vs %v", f1, f0)
	}
	if s1 <= s0 {
		t.Fatalf("post-degradation send not slower: %v vs %v", s1, s0)
	}
}

func TestCrashWhileReceiveThreadHoldsMessage(t *testing.T) {
	// The receive thread of a node that crashes mid-dispatch finishes
	// incorporating the message it already holds (threads are not killed;
	// crash granularity is the network and the engine's iteration
	// boundary), while messages that arrive during the outage are dropped
	// and release their sender's channel.
	sim := des.New()
	grid := cluster.Homogeneous(sim, 2, cluster.P4_2400, netsim.Ethernet100)
	opts := testOpts(RecvSingleThread)
	opts.Costs.RecvLatency = 10 * time.Millisecond // wide dispatch window
	env, err := New(grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	var delivered []int
	env.Comm(1).SetDataSink(func(m aiac.DataMsg) { delivered = append(delivered, m.Iter) })
	node1 := grid.Machines[1].Node

	var duringOutage, afterRestart bool
	sim.SpawnTask("sender", func(p *des.Proc) {
		c := env.Comm(0)
		c.TrySendData(p, aiac.Outgoing{To: 1, Key: 1, Iter: 0, Values: []float64{1}})
		// Intra-site delivery happens after ~200 us; the receive thread
		// then holds the message for the 10 ms dispatch latency. Crash in
		// the middle of that window.
		p.SleepK(5*time.Millisecond, func() {
			grid.Net.SetDown(node1, true)
			duringOutage = c.TrySendData(p, aiac.Outgoing{To: 1, Key: 2, Iter: 1, Values: []float64{2}})
			p.SleepK(50*time.Millisecond, func() {
				// The outage message was dropped at delivery, so its
				// channel must be free again — a jammed channel would
				// starve the algorithm's send-skipping policy forever.
				if !c.TrySendData(p, aiac.Outgoing{To: 1, Key: 2, Iter: 2, Values: []float64{3}}) {
					t.Error("channel still jammed after its message was dropped")
				}
				// Give the second send time to be dropped too.
				p.SleepK(50*time.Millisecond, func() {
					grid.Net.SetDown(node1, false)
					afterRestart = c.TrySendData(p, aiac.Outgoing{To: 1, Key: 2, Iter: 3, Values: []float64{4}})
				})
			})
		})
	})
	sim.Run()

	if !duringOutage {
		t.Fatal("send during the outage refused (it should be accepted and then dropped)")
	}
	if !afterRestart {
		t.Fatal("send after the restart refused")
	}
	want := []int{0, 3}
	if len(delivered) != len(want) || delivered[0] != 0 || delivered[1] != 3 {
		t.Fatalf("delivered iters %v, want %v (in-dispatch message kept, outage messages dropped)", delivered, want)
	}
	if d := grid.Net.StatsSnapshot().Dropped; d != 2 {
		t.Fatalf("dropped = %d, want 2", d)
	}
}

func TestSyncExchangeStallsButTerminatesUnderLoss(t *testing.T) {
	// A synchronous exchange whose dependency message is lost never
	// completes — but the simulation must drain rather than hang, which is
	// how the engine detects a stall.
	sim, grid, env := newTwoSiteEnv(t, RecvSync)
	grid.Net.SetSeed(7)
	grid.Net.SetLoss(0.999)
	finished := false
	sim.SpawnTask("rank1", func(p *des.Proc) {
		env.Comm(1).SyncExchangeK(p, []aiac.Outgoing{}, 1, func() { finished = true })
	})
	sim.SpawnTask("rank0", func(p *des.Proc) {
		env.Comm(0).SyncExchangeK(p, []aiac.Outgoing{{To: 1, Key: 1, Values: []float64{1}}}, 0, func() {})
	})
	end := sim.Run()
	if finished {
		t.Fatal("exchange completed although its message was lost")
	}
	if end > time.Second {
		t.Fatalf("simulation ran to %v instead of draining promptly", end)
	}
}

func TestDroppedRendezvousReleasesChannel(t *testing.T) {
	// Backpressure environments complete a send only at the matching
	// receive; if the message dies with the receiver, the channel must be
	// released anyway.
	sim := des.New()
	grid := cluster.Homogeneous(sim, 2, cluster.P4_2400, netsim.Ethernet100)
	opts := testOpts(RecvSingleThread)
	opts.Backpressure = true
	opts.RendezvousBytes = 0 // every data message uses rendezvous
	env, err := New(grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	node1 := grid.Machines[1].Node
	var retried bool
	sim.SpawnTask("sender", func(p *des.Proc) {
		c := env.Comm(0)
		grid.Net.SetDown(node1, true)
		c.TrySendData(p, aiac.Outgoing{To: 1, Key: 1, Iter: 0, Values: []float64{1}})
		p.SleepK(100*time.Millisecond, func() {
			retried = c.TrySendData(p, aiac.Outgoing{To: 1, Key: 1, Iter: 1, Values: []float64{2}})
		})
	})
	sim.Run()
	if !retried {
		t.Fatal("rendezvous channel jammed after its message was dropped")
	}
}

package envcore

import (
	"testing"
	"time"

	"aiac/internal/aiac"
	"aiac/internal/cluster"
	"aiac/internal/des"
	"aiac/internal/marcel"
	"aiac/internal/netsim"
)

func testOpts(model RecvModel) Options {
	return Options{
		Name: "test",
		Costs: CostModel{
			HeaderBytes:     64,
			PackNsPerByte:   1,
			UnpackNsPerByte: 1,
			SendCPU:         10 * time.Microsecond,
			RecvCPU:         10 * time.Microsecond,
			SendLatency:     20 * time.Microsecond,
			RecvLatency:     50 * time.Microsecond,
		},
		SendThreads:  1,
		RecvModel:    model,
		ThreadPolicy: "test policy",
	}
}

func newTestEnv(t *testing.T, n int, model RecvModel) (*des.Simulator, *cluster.Grid, *Env) {
	t.Helper()
	sim := des.New()
	grid := cluster.Homogeneous(sim, n, cluster.P4_2400, netsim.Ethernet100)
	env, err := New(grid, testOpts(model))
	if err != nil {
		t.Fatal(err)
	}
	return sim, grid, env
}

func TestDataDelivery(t *testing.T) {
	sim, _, env := newTestEnv(t, 2, RecvOnDemand)
	var got []aiac.DataMsg
	env.Comm(1).SetDataSink(func(m aiac.DataMsg) { got = append(got, m) })
	sim.SpawnTask("sender", func(p *des.Proc) {
		ok := env.Comm(0).TrySendData(p, aiac.Outgoing{
			To: 1, Key: 7, Iter: 3, Lo: 10, Values: []float64{1, 2, 3},
		})
		if !ok {
			t.Error("first send refused")
		}
	})
	sim.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d messages", len(got))
	}
	m := got[0]
	if m.From != 0 || m.Key != 7 || m.Iter != 3 || m.Lo != 10 || len(m.Values) != 3 || m.Values[2] != 3 {
		t.Fatalf("message = %+v", m)
	}
}

func TestTrySendSkipsWhileInFlight(t *testing.T) {
	sim, _, env := newTestEnv(t, 2, RecvOnDemand)
	delivered := 0
	env.Comm(1).SetDataSink(func(aiac.DataMsg) { delivered++ })
	var second, afterDelivery bool
	sim.SpawnTask("sender", func(p *des.Proc) {
		c := env.Comm(0)
		big := make([]float64, 100000) // slow enough to still be in flight
		c.TrySendData(p, aiac.Outgoing{To: 1, Key: 1, Values: big})
		second = c.TrySendData(p, aiac.Outgoing{To: 1, Key: 1, Values: big})
		// A different key is an independent channel.
		if !c.TrySendData(p, aiac.Outgoing{To: 1, Key: 2, Values: []float64{1}}) {
			t.Error("distinct key refused")
		}
		p.SleepK(5*time.Second, func() { // well past delivery
			afterDelivery = c.TrySendData(p, aiac.Outgoing{To: 1, Key: 1, Values: []float64{1}})
		})
	})
	sim.Run()
	if second {
		t.Fatal("second send on busy channel was not skipped")
	}
	if !afterDelivery {
		t.Fatal("send after delivery should succeed")
	}
	if delivered != 3 {
		t.Fatalf("delivered = %d, want 3", delivered)
	}
}

func TestSingleRecvThreadSerialisesLatency(t *testing.T) {
	// Two messages arriving together: under RecvSingleThread the second
	// is delivered at least RecvLatency after the first.
	arrival := func(model RecvModel) []des.Time {
		sim := des.New()
		grid := cluster.Homogeneous(sim, 3, cluster.P4_2400, netsim.Ethernet100)
		env := MustNew(grid, testOpts(model))
		var times []des.Time
		env.Comm(2).SetDataSink(func(aiac.DataMsg) { times = append(times, sim.Now()) })
		for _, from := range []int{0, 1} {
			from := from
			sim.SpawnTask("s", func(p *des.Proc) {
				env.Comm(from).TrySendData(p, aiac.Outgoing{To: 2, Key: from, Values: []float64{1}})
			})
		}
		sim.Run()
		return times
	}
	serial := arrival(RecvSingleThread)
	parallel := arrival(RecvOnDemand)
	if len(serial) != 2 || len(parallel) != 2 {
		t.Fatalf("deliveries: %v %v", serial, parallel)
	}
	gapSerial := serial[1] - serial[0]
	gapParallel := parallel[1] - parallel[0]
	if gapSerial < 50*time.Microsecond {
		t.Fatalf("single-thread gap %v should include the full recv latency", gapSerial)
	}
	if gapParallel >= gapSerial {
		t.Fatalf("on-demand gap %v should be smaller than single-thread gap %v", gapParallel, gapSerial)
	}
}

func TestBarrierSynchronises(t *testing.T) {
	sim, _, env := newTestEnv(t, 4, RecvOnDemand)
	var releases []des.Time
	for r := 0; r < 4; r++ {
		r := r
		sim.SpawnTask("w", func(p *des.Proc) {
			p.SleepK(des.Time(r)*10*time.Millisecond, func() { // staggered arrivals
				env.Comm(r).BarrierK(p, func() { releases = append(releases, p.Now()) })
			})
		})
	}
	sim.Run()
	if len(releases) != 4 {
		t.Fatalf("releases = %v", releases)
	}
	for _, ts := range releases {
		// Nobody may pass before the last arrival at 30ms.
		if ts < 30*time.Millisecond {
			t.Fatalf("barrier released at %v before last arrival", ts)
		}
	}
}

func TestAllreduceMax(t *testing.T) {
	sim, _, env := newTestEnv(t, 3, RecvOnDemand)
	vals := []float64{0.5, 2.5, 1.5}
	results := make([]float64, 3)
	for r := 0; r < 3; r++ {
		r := r
		sim.SpawnTask("w", func(p *des.Proc) {
			env.Comm(r).AllreduceMaxK(p, vals[r], func(v float64) { results[r] = v })
		})
	}
	sim.Run()
	for r, got := range results {
		if got != 2.5 {
			t.Fatalf("rank %d allreduce = %v, want 2.5", r, got)
		}
	}
}

func TestAllreduceConsecutiveRounds(t *testing.T) {
	sim, _, env := newTestEnv(t, 3, RecvOnDemand)
	var sums [2]float64
	for r := 0; r < 3; r++ {
		r := r
		sim.SpawnTask("w", func(p *des.Proc) {
			env.Comm(r).AllreduceMaxK(p, float64(r), func(a float64) {
				env.Comm(r).AllreduceMaxK(p, float64(10-r), func(b float64) {
					if r == 0 {
						sums[0], sums[1] = a, b
					}
				})
			})
		})
	}
	sim.Run()
	if sums[0] != 2 || sums[1] != 10 {
		t.Fatalf("rounds = %v, want [2 10]", sums)
	}
}

func TestStopBroadcast(t *testing.T) {
	sim, _, env := newTestEnv(t, 3, RecvOnDemand)
	opened := make([]bool, 3)
	for r := 0; r < 3; r++ {
		r := r
		sim.SpawnTask("w", func(p *des.Proc) {
			env.Comm(r).Stop().WaitK(p, func() { opened[r] = true })
		})
	}
	sim.SpawnTask("coord", func(p *des.Proc) {
		p.SleepK(time.Millisecond, func() { env.Comm(0).BroadcastStop(p) })
	})
	sim.Run()
	for r, ok := range opened {
		if !ok {
			t.Fatalf("rank %d never saw stop", r)
		}
	}
}

func TestStateMessageReachesCoordinator(t *testing.T) {
	sim, _, env := newTestEnv(t, 3, RecvOnDemand)
	var got []aiac.StateMsg
	env.Comm(0).SetStateSink(func(_ *des.Proc, st aiac.StateMsg) { got = append(got, st) })
	sim.SpawnTask("w", func(p *des.Proc) {
		env.Comm(2).SendStateK(p, aiac.StateMsg{From: 2, Converged: true, Seq: 1}, func() {})
	})
	sim.SpawnTask("self", func(p *des.Proc) {
		env.Comm(0).SendStateK(p, aiac.StateMsg{From: 0, Converged: true, Seq: 1}, func() {})
	})
	sim.Run()
	if len(got) != 2 {
		t.Fatalf("coordinator saw %d state messages, want 2 (incl. loopback)", len(got))
	}
}

func TestDeploymentRequiresCompleteGraph(t *testing.T) {
	sim := des.New()
	grid := cluster.ThreeSiteEthernet(sim, 3)
	grid.Net.Block(0, 1)
	if _, err := New(grid, testOpts(RecvOnDemand)); err == nil {
		t.Fatal("expected deployment error on blocked grid")
	}
	// With relaying (ORB style) the same grid deploys fine.
	opts := testOpts(RecvOnDemand)
	opts.Relay = true
	env, err := New(grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	// And traffic between the blocked sites arrives via the relay.
	var got int
	env.Comm(1).SetDataSink(func(aiac.DataMsg) { got++ })
	sim.SpawnTask("s", func(p *des.Proc) {
		// Node 0 is on site 0, node 1 on site 1 (blocked pair); node 2 on
		// site 2 sees both.
		env.Comm(0).TrySendData(p, aiac.Outgoing{To: 1, Key: 1, Values: []float64{42}})
	})
	sim.Run()
	if got != 1 {
		t.Fatalf("relayed message not delivered, got %d", got)
	}
}

// exchangeRounds runs n lockstep iterations on c, rank 1-peer of two: one
// value exchanged with peer, then an allreduce.
func exchangeRounds(p *des.Proc, c aiac.Comm, peer, n int) {
	var round func(iter int)
	round = func(iter int) {
		if iter == n {
			return
		}
		sends := []aiac.Outgoing{{To: peer, Key: 1 - peer, Iter: iter, Values: []float64{float64(iter)}}}
		c.SyncExchangeK(p, sends, 1, func() {
			c.AllreduceMaxK(p, 0, func(float64) { round(iter + 1) })
		})
	}
	round(0)
}

func TestSyncExchange(t *testing.T) {
	sim, _, env := newTestEnv(t, 2, RecvSync)
	gotA, gotB := 0, 0
	env.Comm(0).SetDataSink(func(aiac.DataMsg) { gotA++ })
	env.Comm(1).SetDataSink(func(aiac.DataMsg) { gotB++ })
	for r := 0; r < 2; r++ {
		r := r
		sim.SpawnTask("w", func(p *des.Proc) { exchangeRounds(p, env.Comm(r), 1-r, 3) })
	}
	sim.Run()
	if gotA != 3 || gotB != 3 {
		t.Fatalf("exchanged %d/%d messages, want 3/3", gotA, gotB)
	}
}

func TestResetSessionClearsInflight(t *testing.T) {
	sim, _, env := newTestEnv(t, 2, RecvOnDemand)
	sim.SpawnTask("s", func(p *des.Proc) {
		c := env.Comm(0)
		big := make([]float64, 100000)
		c.TrySendData(p, aiac.Outgoing{To: 1, Key: 1, Values: big})
		if c.TrySendData(p, aiac.Outgoing{To: 1, Key: 1, Values: big}) {
			t.Error("expected busy channel")
		}
		c.ResetSession()
		if !c.TrySendData(p, aiac.Outgoing{To: 1, Key: 1, Values: []float64{1}}) {
			t.Error("ResetSession did not clear in-flight bookkeeping")
		}
	})
	sim.Run()
}

func TestSendThreadCountAffectsThroughput(t *testing.T) {
	// With one send thread, packing of message k delays message k+1;
	// with many threads, packing overlaps (CPU contention aside).
	lastDelivery := func(threads int) des.Time {
		sim := des.New()
		grid := cluster.Homogeneous(sim, 5, cluster.P4_2400, netsim.Ethernet100)
		opts := testOpts(RecvOnDemand)
		opts.SendThreads = threads
		opts.Costs.SendLatency = 500 * time.Microsecond // dominant, overlappable
		env := MustNew(grid, opts)
		var last des.Time
		for r := 1; r < 5; r++ {
			env.Comm(r).SetDataSink(func(aiac.DataMsg) {
				if sim.Now() > last {
					last = sim.Now()
				}
			})
		}
		sim.SpawnTask("s", func(p *des.Proc) {
			c := env.Comm(0)
			for to := 1; to < 5; to++ {
				c.TrySendData(p, aiac.Outgoing{To: to, Key: to, Values: []float64{1}})
			}
		})
		sim.Run()
		return last
	}
	one := lastDelivery(1)
	four := lastDelivery(4)
	if four >= one {
		t.Fatalf("4 send threads (%v) not faster than 1 (%v)", four, one)
	}
}

func TestRecvModelString(t *testing.T) {
	if RecvSync.String() == "" || RecvSingleThread.String() == "" || RecvOnDemand.String() == "" {
		t.Fatal("empty RecvModel strings")
	}
}

func TestAllreduceSumVector(t *testing.T) {
	sim, _, env := newTestEnv(t, 3, RecvOnDemand)
	want := []float64{0 + 1 + 2, 10 + 11 + 12}
	results := make([][]float64, 3)
	for r := 0; r < 3; r++ {
		r := r
		sim.SpawnTask("w", func(p *des.Proc) {
			env.Comm(r).AllreduceSumK(p, []float64{float64(r), float64(10 + r)}, func(v []float64) { results[r] = v })
		})
	}
	sim.Run()
	for r, got := range results {
		if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("rank %d sum = %v, want %v", r, got, want)
		}
	}
}

func TestRendezvousAddsRoundTrip(t *testing.T) {
	deliver := func(rdvBytes int) des.Time {
		sim := des.New()
		grid := cluster.Homogeneous(sim, 2, cluster.P4_2400, netsim.Ethernet100)
		opts := testOpts(RecvSingleThread)
		opts.Backpressure = true
		opts.RendezvousBytes = rdvBytes
		env := MustNew(grid, opts)
		var at des.Time
		env.Comm(1).SetDataSink(func(aiac.DataMsg) { at = sim.Now() })
		sim.SpawnTask("s", func(p *des.Proc) {
			env.Comm(0).TrySendData(p, aiac.Outgoing{To: 1, Key: 1, Values: make([]float64, 1000)})
		})
		sim.Run()
		return at
	}
	eager := deliver(1 << 30) // threshold never reached: eager
	rdv := deliver(1)         // always rendezvous
	if rdv <= eager {
		t.Fatalf("rendezvous (%v) should be slower than eager (%v) by the handshake RTT", rdv, eager)
	}
	// The difference is about one network round-trip (2 x 100us LAN latency).
	if d := rdv - eager; d < 150*time.Microsecond || d > 400*time.Microsecond {
		t.Fatalf("handshake delta = %v, want ~200us", d)
	}
}

func TestSocketStallDelaysLargeMessages(t *testing.T) {
	deliver := func(buf int) des.Time {
		sim := des.New()
		grid := cluster.Homogeneous(sim, 2, cluster.P4_2400, netsim.Ethernet10)
		opts := testOpts(RecvSingleThread)
		opts.SocketBufBytes = buf
		env := MustNew(grid, opts)
		var at des.Time
		env.Comm(1).SetDataSink(func(aiac.DataMsg) { at = sim.Now() })
		sim.SpawnTask("s", func(p *des.Proc) {
			env.Comm(0).TrySendData(p, aiac.Outgoing{To: 1, Key: 1, Values: make([]float64, 10000)}) // 80 KB
		})
		sim.Run()
		return at
	}
	unbuffered := deliver(0)     // no stall modelling
	stalled := deliver(16 << 10) // 64 KB beyond the buffer must be drained
	if stalled <= unbuffered {
		t.Fatalf("socket stall missing: %v vs %v", stalled, unbuffered)
	}
}

func TestFlowControlThrottlesFloodingSender(t *testing.T) {
	// A sender flooding a slow single-threaded receiver must be throttled
	// by the receive window rather than filling the inbox without bound.
	sim := des.New()
	grid := cluster.Homogeneous(sim, 2, cluster.P4_2400, netsim.Ethernet100)
	opts := testOpts(RecvSingleThread)
	opts.Costs.RecvLatency = 5 * time.Millisecond // very slow consumer
	env := MustNew(grid, opts)
	received := 0
	env.Comm(1).SetDataSink(func(aiac.DataMsg) { received++ })
	sent := 0
	sim.SpawnTask("s", func(p *des.Proc) {
		var flood func(i int)
		flood = func(i int) {
			if i == 2000 {
				return
			}
			if env.Comm(0).TrySendData(p, aiac.Outgoing{To: 1, Key: i % 3, Values: []float64{1}}) {
				sent++
			}
			p.SleepK(10*time.Microsecond, func() { flood(i + 1) })
		}
		flood(0)
	})
	sim.Run()
	if received != sent {
		t.Fatalf("sent %d != received %d", sent, received)
	}
	// Without the window 401 sends go through (eager sends end at
	// delivery, so the inbox grows unbounded); with the window of 16 and a
	// 5ms consumer only a handful per 10ms can.
	if sent > 200 {
		t.Fatalf("flow control failed to throttle: %d sends accepted", sent)
	}
}

// TestSyncExchangeThreadedRecv runs the SISC exchange over the threaded
// receive models, where deliveries happen in receive threads and
// SyncExchangeK waits on the cumulative delivery count instead of draining
// syncData.
func TestSyncExchangeThreadedRecv(t *testing.T) {
	for _, model := range []RecvModel{RecvSingleThread, RecvOnDemand} {
		sim, _, env := newTestEnv(t, 2, model)
		gotA, gotB := 0, 0
		env.Comm(0).SetDataSink(func(aiac.DataMsg) { gotA++ })
		env.Comm(1).SetDataSink(func(aiac.DataMsg) { gotB++ })
		for r := 0; r < 2; r++ {
			r := r
			sim.SpawnTask("w", func(p *des.Proc) { exchangeRounds(p, env.Comm(r), 1-r, 3) })
		}
		sim.Run()
		if gotA != 3 || gotB != 3 {
			t.Fatalf("%v: exchanged %d/%d messages, want 3/3", model, gotA, gotB)
		}
	}
}

// A handler thread of RecvOnDemand pays the thread-creation cost before it
// touches its message, whether it is a new process or one parked back in
// its endpoint's pool by an earlier message.
func TestHandlerPaysSpawnCost(t *testing.T) {
	deliveries := func(spawnCost des.Time) []des.Time {
		sim := des.New()
		grid := cluster.Homogeneous(sim, 2, cluster.P4_2400, netsim.Ethernet100)
		grid.Machines[1].CPU.SpawnCost = spawnCost
		env := MustNew(grid, testOpts(RecvOnDemand))
		var times []des.Time
		env.Comm(1).SetDataSink(func(aiac.DataMsg) { times = append(times, sim.Now()) })
		sim.SpawnTask("sender", func(p *des.Proc) {
			env.Comm(0).TrySendData(p, aiac.Outgoing{To: 1, Key: 1, Values: []float64{1}})
			p.SleepK(10*time.Millisecond, func() { // the first handler is idle by then
				env.Comm(0).TrySendData(p, aiac.Outgoing{To: 1, Key: 1, Values: []float64{2}})
			})
		})
		sim.Run()
		if n := idleHandlers(env.eps[1]); n != 1 {
			t.Fatalf("%d handlers idle after two messages far apart; want the one reused", n)
		}
		return times
	}
	free, charged := deliveries(0), deliveries(marcel.DefaultThreadSpawnCost)
	if len(free) != 2 || len(charged) != 2 {
		t.Fatalf("deliveries %v and %v; want two each", free, charged)
	}
	for i := range free {
		if d := charged[i] - free[i]; d != marcel.DefaultThreadSpawnCost {
			t.Errorf("message %d is delivered %v later with the spawn cost charged; want %v", i, d, marcel.DefaultThreadSpawnCost)
		}
	}
}

func idleHandlers(ep *Endpoint) int {
	n := 0
	for h := ep.idle; h != nil; h = h.next {
		if h.w != nil {
			panic("an idle handler holds a wire")
		}
		n++
	}
	return n
}

// Eight messages reaching one endpoint at the same instant run on eight
// handler threads at once; a second such burst, once they are done, runs
// on the same eight.
func TestHandlerPoolReuse(t *testing.T) {
	sim := des.New()
	grid := cluster.Homogeneous(sim, 9, cluster.P4_2400, netsim.Ethernet100)
	env := MustNew(grid, testOpts(RecvOnDemand))
	delivered := 0
	env.Comm(0).SetDataSink(func(aiac.DataMsg) { delivered++ })
	burst := func() {
		for r := 1; r <= 8; r++ {
			r := r
			sim.SpawnTask("sender", func(p *des.Proc) {
				env.Comm(r).TrySendData(p, aiac.Outgoing{To: 0, Key: r, Values: []float64{float64(r)}})
			})
		}
		sim.Run()
	}
	burst()
	live := sim.LiveProcs()
	if n := idleHandlers(env.eps[0]); n != 8 || delivered != 8 {
		t.Fatalf("after the first burst: %d deliveries, %d idle handlers; want 8 and 8", delivered, n)
	}
	burst()
	if n := idleHandlers(env.eps[0]); n != 8 || delivered != 16 || sim.LiveProcs() != live {
		t.Fatalf("after the second burst: %d deliveries, %d idle handlers, %d live processes; want 16, 8, %d",
			delivered, n, sim.LiveProcs(), live)
	}
}

// A session that ends with a rank blocked in an allreduce leaves that round
// waiting; the rank's next session starts the next round beside it, and a
// result that completes the old round later still wakes the old waiter.
func TestAllreduceAbandonedRound(t *testing.T) {
	sim, _, env := newTestEnv(t, 2, RecvOnDemand)
	var old, next, rank0 []float64
	sim.SpawnTask("session1", func(p *des.Proc) {
		env.Comm(1).AllreduceMaxK(p, 1, func(v float64) { old = append(old, v) })
	})
	sim.Run() // rank 0 never contributes: rank 1 stays blocked in round 0
	if old != nil {
		t.Fatalf("round 0 completed with one contribution: %v", old)
	}
	sim.SpawnTask("session2", func(p *des.Proc) {
		env.Comm(1).AllreduceMaxK(p, 5, func(v float64) { next = append(next, v) })
	})
	sim.SpawnTask("rank0", func(p *des.Proc) {
		env.Comm(0).AllreduceMaxK(p, 3, func(a float64) {
			rank0 = append(rank0, a)
			env.Comm(0).AllreduceMaxK(p, 4, func(b float64) { rank0 = append(rank0, b) })
		})
	})
	sim.Run()
	if len(old) != 1 || old[0] != 3 || len(next) != 1 || next[0] != 5 || len(rank0) != 2 || rank0[0] != 3 || rank0[1] != 5 {
		t.Fatalf("old round %v, next round %v, rank 0 %v; want [3], [5], [3 5]", old, next, rank0)
	}
}

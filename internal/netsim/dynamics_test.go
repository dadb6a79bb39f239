package netsim

import (
	"testing"
	"time"

	"aiac/internal/des"
)

// sendAt runs a single send at virtual time at and returns the delivery
// time observed by the deliver callback (or the Dropped flag).
func deliverInfo(sim *des.Simulator, n *Network, from, to, bytes int, opts ...SendOpt) (at des.Time, dropped bool) {
	n.Send(from, to, bytes, nil, "", func(m *Message) {
		at = sim.Now()
		dropped = m.Dropped
	}, opts...)
	sim.Run()
	return at, dropped
}

func TestScaledKeepsName(t *testing.T) {
	lc := ADSL.Scaled(2, 16)
	if lc.Name != ADSL.Name {
		t.Fatalf("scaled link renamed to %q", lc.Name)
	}
	if lc.UpBps != ADSL.UpBps/2 || lc.DownBps != ADSL.DownBps/2 {
		t.Fatalf("bandwidth not halved: %+v", lc)
	}
	if lc.Latency != 16*ADSL.Latency {
		t.Fatalf("latency = %v, want %v", lc.Latency, 16*ADSL.Latency)
	}
}

func TestFIFOClampAfterRestore(t *testing.T) {
	// A message sent during a high-latency window must not be overtaken by
	// one sent just after the restore: TCP byte streams do not reorder.
	sim := des.New()
	n := twoSiteNet(sim)
	nominal := n.Uplink(1)
	n.sites[1].Uplink = nominal.Scaled(1, 1000)
	var first, second des.Time
	n.Send(0, 2, 100, nil, "", func(m *Message) { first = sim.Now() })
	sim.Schedule(time.Millisecond, func() {
		n.sites[1].Uplink = nominal
		n.Send(0, 2, 100, nil, "", func(m *Message) { second = sim.Now() })
	})
	sim.Run()
	if second < first {
		t.Fatalf("post-restore message overtook the slow one: %v < %v", second, first)
	}
}

func TestLossDropsOnlyUnreliableMessages(t *testing.T) {
	sim := des.New()
	n := twoSiteNet(sim)
	n.SetJitter(0, 42)
	n.SetLoss(0.999)
	var droppedUnreliable, droppedReliable bool
	n.Send(0, 1, 100, nil, "", func(m *Message) { droppedUnreliable = m.Dropped }, Unreliable())
	n.Send(0, 1, 100, nil, "", func(m *Message) { droppedReliable = m.Dropped })
	sim.Run()
	if !droppedUnreliable {
		t.Fatal("unreliable message survived a 99.9% loss rate")
	}
	if droppedReliable {
		t.Fatal("reliable message was dropped by the loss model")
	}
	if n.StatsSnapshot().Dropped != 1 {
		t.Fatalf("Dropped stat = %d, want 1", n.StatsSnapshot().Dropped)
	}
	n.SetLoss(0)
	var droppedAfter bool
	n.Send(0, 1, 100, nil, "", func(m *Message) { droppedAfter = m.Dropped }, Unreliable())
	sim.Run()
	if droppedAfter {
		t.Fatal("message dropped after the loss model was disabled")
	}
}

func TestDownNodeDropsTraffic(t *testing.T) {
	sim := des.New()
	n := twoSiteNet(sim)
	n.SetDown(1, true)
	toDown, d1 := deliverInfo(sim, n, 0, 1, 100)
	if !d1 {
		t.Fatal("message to a down node not dropped")
	}
	if toDown == 0 {
		t.Fatal("dropped message must still be delivered (with Dropped) so senders can release state")
	}
	_, d2 := deliverInfo(sim, n, 1, 0, 100)
	if !d2 {
		t.Fatal("message from a down node not dropped")
	}
	n.SetDown(1, false)
	if _, d := deliverInfo(sim, n, 0, 1, 100); d {
		t.Fatal("message dropped after restart")
	}
}

func TestCrashWhileMessageInFlight(t *testing.T) {
	// The down check happens again at delivery time: a message already in
	// flight when its destination crashes is lost.
	sim := des.New()
	n := twoSiteNet(sim)
	var dropped bool
	n.Send(0, 2, 100000, nil, "", func(m *Message) { dropped = m.Dropped })
	sim.Schedule(time.Microsecond, func() { n.SetDown(2, true) })
	sim.Run()
	if !dropped {
		t.Fatal("in-flight message survived the destination's crash")
	}
}

func TestJitterStreamsAreDeterministicAndDistinct(t *testing.T) {
	run := func(seed int64) []des.Time {
		sim := des.New()
		n := twoSiteNet(sim)
		n.SetJitter(0.02, seed)
		var times []des.Time
		for i := 0; i < 5; i++ {
			n.Send(0, 2, 1000, nil, "", func(m *Message) { times = append(times, sim.Now()) })
		}
		sim.Run()
		return times
	}
	a1, a2, b := run(1), run(1), run(2)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("same seed diverged at message %d: %v vs %v", i, a1[i], a2[i])
		}
	}
	same := true
	for i := range a1 {
		if a1[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("distinct seeds produced identical delivery times")
	}
}

func TestJitterOffIsBitIdentical(t *testing.T) {
	sim1 := des.New()
	n1 := twoSiteNet(sim1)
	t1, _ := deliverInfo(sim1, n1, 0, 2, 1000)
	sim2 := des.New()
	n2 := twoSiteNet(sim2)
	n2.SetJitter(0, 99) // frac 0: seed irrelevant
	t2, _ := deliverInfo(sim2, n2, 0, 2, 1000)
	if t1 != t2 {
		t.Fatalf("zero jitter changed delivery: %v vs %v", t1, t2)
	}
}

func TestPartitionSeversOnlyInterSiteTraffic(t *testing.T) {
	sim := des.New()
	n := twoSiteNet(sim)
	n.SetPartitioned(1, true)
	if _, dropped := deliverInfo(sim, n, 0, 1, 100); dropped {
		t.Fatal("intra-site message dropped by a cut uplink")
	}
	if _, dropped := deliverInfo(sim, n, 0, 2, 100); !dropped {
		t.Fatal("inter-site message survived the partition")
	}
	if _, dropped := deliverInfo(sim, n, 2, 0, 100); !dropped {
		t.Fatal("outbound inter-site message survived the partition")
	}
	n.SetPartitioned(1, false)
	if _, dropped := deliverInfo(sim, n, 0, 2, 100); dropped {
		t.Fatal("message dropped after the partition healed")
	}
}

func TestCrashOfSenderDropsInFlightMessage(t *testing.T) {
	// The severed-path check at delivery covers both directions: a message
	// in flight when its *sender* goes down dies with the connection.
	sim := des.New()
	n := twoSiteNet(sim)
	var dropped bool
	n.Send(2, 0, 100000, nil, "", func(m *Message) { dropped = m.Dropped })
	sim.Schedule(time.Microsecond, func() { n.SetDown(2, true) })
	sim.Run()
	if !dropped {
		t.Fatal("in-flight message survived the sender's crash")
	}
}

func TestSendReturnsClampedDeliveryTime(t *testing.T) {
	// The FIFO clamp applies to the returned delivery time too.
	sim := des.New()
	n := twoSiteNet(sim)
	nominal := n.Uplink(1)
	n.sites[1].Uplink = nominal.Scaled(1, 1000)
	slow, err := n.Send(0, 2, 100, nil, "", func(*Message) {})
	if err != nil {
		t.Fatal(err)
	}
	n.sites[1].Uplink = nominal
	fast, err := n.Send(0, 2, 100, nil, "", func(*Message) {})
	if err != nil {
		t.Fatal(err)
	}
	if fast < slow {
		t.Fatalf("returned delivery %v precedes the earlier message's %v", fast, slow)
	}
	sim.Run()
}

// A message bound for a shared destination segment crosses the segment it
// was sent to: replacing the site's LANs while it is in flight reroutes
// only messages sent afterwards. Without the swap the two messages
// serialise on the one hub; with it, the second is on the new segment and
// does not queue behind the first.
func TestSetLANsDoesNotRerouteInFlightMessage(t *testing.T) {
	const bytes = 125000 // 0.1 s at 10 Mb/s
	run := func(swap bool) (first, second des.Time) {
		sim := des.New()
		n := New(sim, []Site{
			{Name: "src", Uplink: Ethernet100, LANs: []LinkClass{Ethernet100}},
			{Name: "hub", Uplink: Ethernet100, LANs: []LinkClass{Ethernet10Hub}},
		})
		a, b := n.AddNode(0), n.AddNode(0)
		c, d := n.AddNode(1), n.AddNode(1)
		n.Send(a, c, bytes, nil, "", func(m *Message) { first = m.DeliverAt })
		sim.Schedule(time.Microsecond, func() {
			if swap {
				rewired := Ethernet10Hub
				rewired.Name = "ethernet10hub-rewired"
				n.SetLANs(1, []LinkClass{rewired})
			}
			n.Send(b, d, bytes, nil, "", func(m *Message) { second = m.DeliverAt })
		})
		sim.Run()
		return first, second
	}
	ser := des.Time(float64(bytes) / Ethernet10Hub.DownBps * float64(time.Second))
	first, second := run(false)
	if second-first != ser {
		t.Fatalf("one hub: gap = %v, want the serialisation time %v", second-first, ser)
	}
	swappedFirst, swappedSecond := run(true)
	if swappedFirst != first {
		t.Fatalf("in-flight message rescheduled by SetLANs: %v, want %v", swappedFirst, first)
	}
	if gap := swappedSecond - swappedFirst; gap != time.Microsecond {
		t.Fatalf("rewired hub: gap = %v, want 1µs (the in-flight message must stay on the segment it was sent to)", gap)
	}
}

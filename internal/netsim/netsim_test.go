package netsim

import (
	"math"
	"os"
	"testing"
	"testing/quick"
	"time"

	"aiac/internal/des"
)

// twoSiteNet builds: site 0 (2 nodes, 100Mb LAN), site 1 (1 node, 10Mb LAN),
// both with Ethernet10 uplinks.
func twoSiteNet(sim *des.Simulator) *Network {
	n := New(sim, []Site{
		{Name: "a", Uplink: Ethernet10, LANs: []LinkClass{Ethernet100}},
		{Name: "b", Uplink: Ethernet10, LANs: []LinkClass{Ethernet10}},
	})
	n.AddNode(0)
	n.AddNode(0)
	n.AddNode(1)
	return n
}

func TestIntraSitePath(t *testing.T) {
	n := twoSiteNet(des.New())
	p := n.PathBetween(0, 1, "")
	if p.InterSite {
		t.Fatal("intra-site path flagged inter-site")
	}
	if p.Latency != Ethernet100.Latency {
		t.Fatalf("latency = %v, want %v", p.Latency, Ethernet100.Latency)
	}
	if p.BottleneckBps != Ethernet100.UpBps {
		t.Fatalf("bw = %v, want %v", p.BottleneckBps, Ethernet100.UpBps)
	}
}

func TestInterSitePathBottleneck(t *testing.T) {
	n := twoSiteNet(des.New())
	p := n.PathBetween(0, 2, "")
	if !p.InterSite {
		t.Fatal("inter-site path not flagged")
	}
	if p.BottleneckBps != Ethernet10.UpBps {
		t.Fatalf("bottleneck = %v, want %v (10Mb uplink)", p.BottleneckBps, Ethernet10.UpBps)
	}
	wantLat := Ethernet100.Latency + Ethernet10.Latency + interSiteLatency + Ethernet10.Latency + Ethernet10.Latency
	if p.Latency != wantLat {
		t.Fatalf("latency = %v, want %v", p.Latency, wantLat)
	}
}

func TestADSLAsymmetry(t *testing.T) {
	sim := des.New()
	n := New(sim, []Site{
		{Name: "eth", Uplink: Ethernet10, LANs: []LinkClass{Ethernet100}},
		{Name: "adsl", Uplink: ADSL, LANs: []LinkClass{Ethernet100}},
	})
	a := n.AddNode(0)
	b := n.AddNode(1)
	// Into the ADSL site: limited by 512 kb/s down.
	into := n.PathBetween(a, b, "")
	if into.BottleneckBps != ADSL.DownBps {
		t.Fatalf("into ADSL bw = %v, want %v", into.BottleneckBps, ADSL.DownBps)
	}
	// Out of the ADSL site: limited by 128 kb/s up.
	out := n.PathBetween(b, a, "")
	if out.BottleneckBps != ADSL.UpBps {
		t.Fatalf("out of ADSL bw = %v, want %v", out.BottleneckBps, ADSL.UpBps)
	}
	if out.BottleneckBps >= into.BottleneckBps {
		t.Fatal("ADSL should be slower upstream than downstream")
	}
}

func TestSendDeliveryTime(t *testing.T) {
	sim := des.New()
	n := twoSiteNet(sim)
	const bytes = 125000 // 1 Mb => 0.01 s at 100 Mb/s
	// The message is recycled when the callback returns: read it inside.
	var got struct {
		delivered bool
		deliverAt des.Time
		payload   any
	}
	_, err := n.Send(0, 1, bytes, "hello", "", func(m *Message) {
		got.delivered, got.deliverAt, got.payload = true, m.DeliverAt, m.Payload
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if !got.delivered {
		t.Fatal("message not delivered")
	}
	wantSer := des.Time(float64(bytes) / Ethernet100.UpBps * float64(time.Second))
	want := wantSer + Ethernet100.Latency
	if got.deliverAt != want {
		t.Fatalf("DeliverAt = %v, want %v", got.deliverAt, want)
	}
	if got.payload != "hello" {
		t.Fatalf("payload = %v", got.payload)
	}
}

// A delivered message goes back on the free list when its callback
// returns: the next Send reuses it, and a reference kept past the callback
// reads the poison this binary's TestMain turns on.
func TestMessageRecycledAfterDeliver(t *testing.T) {
	sim := des.New()
	n := twoSiteNet(sim)
	var kept *Message
	n.Send(0, 1, 1000, "first", "", func(m *Message) { kept = m })
	sim.Run()
	if kept.From != -1 || kept.To != -1 || kept.DeliverAt != -1 || kept.Payload != nil {
		t.Fatalf("released message reads %+v; want the poison sentinels", *kept)
	}
	var second *Message
	n.Send(1, 0, 1000, "second", "", func(m *Message) {
		second = m
		if m.From != 1 || m.To != 0 || m.Payload != "second" || m.Dropped {
			t.Errorf("reused message delivered as %+v", *m)
		}
	})
	sim.Run()
	if second != kept {
		t.Error("the second Send did not reuse the released message")
	}
}

func TestMain(m *testing.M) {
	PoisonReleased(true)
	os.Exit(m.Run())
}

func TestEgressSerialisation(t *testing.T) {
	sim := des.New()
	n := twoSiteNet(sim)
	const bytes = 1250000 // 0.1 s serialisation each at 100 Mb/s
	var times []des.Time
	for i := 0; i < 3; i++ {
		if _, err := n.Send(0, 1, bytes, i, "", func(m *Message) { times = append(times, m.DeliverAt) }); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	// Back-to-back sends from the same node must queue: deliveries 0.1 s apart.
	ser := des.Time(float64(bytes) / Ethernet100.UpBps * float64(time.Second))
	for i := 1; i < 3; i++ {
		if d := times[i] - times[i-1]; d != ser {
			t.Fatalf("delivery gap %d = %v, want %v", i, d, ser)
		}
	}
}

func TestDistinctSendersOnSwitchedLANDoNotQueue(t *testing.T) {
	sim := des.New()
	n := twoSiteNet(sim)
	const bytes = 1250000
	var times []des.Time
	// Nodes 0 and 1 are on the switched 100 Mb site: their transfers to
	// each other use separate NIC pipes.
	n.Send(0, 1, bytes, nil, "", func(m *Message) { times = append(times, m.DeliverAt) })
	n.Send(1, 0, bytes, nil, "", func(m *Message) { times = append(times, m.DeliverAt) })
	sim.Run()
	if times[0] != times[1] {
		t.Fatalf("switched-LAN senders should deliver simultaneously, got %v vs %v", times[0], times[1])
	}
}

func TestSharedMediumSerialisesAllTraffic(t *testing.T) {
	sim := des.New()
	n := New(sim, []Site{
		{Name: "hub", Uplink: Ethernet10Hub, LANs: []LinkClass{Ethernet10Hub}},
	})
	a := n.AddNode(0)
	b := n.AddNode(0)
	c := n.AddNode(0)
	d := n.AddNode(0)
	const bytes = 125000 // 0.1 s at 10 Mb/s
	var times []des.Time
	// Two transfers between disjoint node pairs: on a shared medium they
	// must still serialise.
	n.Send(a, b, bytes, nil, "", func(m *Message) { times = append(times, m.DeliverAt) })
	n.Send(c, d, bytes, nil, "", func(m *Message) { times = append(times, m.DeliverAt) })
	sim.Run()
	if len(times) != 2 {
		t.Fatal("messages lost")
	}
	gap := times[1] - times[0]
	ser := des.Time(float64(bytes) / Ethernet10Hub.UpBps * float64(time.Second))
	if gap != ser {
		t.Fatalf("shared medium gap = %v, want %v", gap, ser)
	}
}

func TestLoopback(t *testing.T) {
	sim := des.New()
	n := twoSiteNet(sim)
	p := n.PathBetween(0, 0, "")
	if p.Latency > 10*time.Microsecond {
		t.Fatalf("loopback latency %v too high", p.Latency)
	}
}

func TestMultiProtocol(t *testing.T) {
	sim := des.New()
	n := New(sim, []Site{
		{Name: "a", Uplink: Ethernet10, LANs: []LinkClass{Ethernet100, Myrinet}},
		{Name: "b", Uplink: Ethernet10, LANs: []LinkClass{Ethernet100}},
	})
	a0 := n.AddNode(0)
	a1 := n.AddNode(0)
	b0 := n.AddNode(1)
	if !n.HasProto(a0, a1, "myrinet") {
		t.Fatal("myrinet should be available intra-site on site a")
	}
	if n.HasProto(a0, b0, "myrinet") {
		t.Fatal("myrinet must not be available inter-site")
	}
	fast := n.PathBetween(a0, a1, "myrinet")
	slow := n.PathBetween(a0, a1, "")
	if fast.BottleneckBps <= slow.BottleneckBps {
		t.Fatal("myrinet path should be faster than TCP path")
	}
	// Unknown protocol silently falls back to the default LAN.
	fb := n.PathBetween(a0, a1, "nosuch")
	if fb.BottleneckBps != slow.BottleneckBps {
		t.Fatal("unknown protocol should fall back to default LAN")
	}
}

func TestBlockedSites(t *testing.T) {
	sim := des.New()
	n := twoSiteNet(sim)
	n.Block(0, 1)
	if n.Reachable(0, 2) {
		t.Fatal("blocked pair reported reachable")
	}
	if n.Reachable(2, 0) {
		t.Fatal("blocking must be symmetric")
	}
	if !n.Reachable(0, 1) {
		t.Fatal("intra-site traffic must stay reachable")
	}
	if _, err := n.Send(0, 2, 10, nil, "", func(*Message) {}); err == nil {
		t.Fatal("Send across blocked pair should fail")
	}
}

func TestStats(t *testing.T) {
	sim := des.New()
	n := twoSiteNet(sim)
	n.Send(0, 1, 100, nil, "", func(*Message) {})
	n.Send(0, 2, 200, nil, "", func(*Message) {})
	sim.Run()
	st := n.StatsSnapshot()
	if st.Messages != 2 || st.Bytes != 300 || st.IntraSite != 1 || st.InterSite != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// Property: delivery time is monotone in message size and never before
// latency has elapsed.
func TestDeliveryMonotoneInSize(t *testing.T) {
	f := func(raw uint16) bool {
		size := int(raw)%100000 + 1
		sim := des.New()
		n := twoSiteNet(sim)
		d1, _ := n.Send(0, 2, size, nil, "", func(*Message) {})
		sim2 := des.New()
		n2 := twoSiteNet(sim2)
		d2, _ := n2.Send(0, 2, size*2, nil, "", func(*Message) {})
		p := n.PathBetween(0, 2, "")
		return d2 > d1 && d1 >= p.Latency
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: serialisation time scales linearly with bytes (within rounding).
func TestSerialisationLinear(t *testing.T) {
	sim := des.New()
	n := twoSiteNet(sim)
	p := n.PathBetween(0, 2, "")
	d1, _ := n.Send(0, 2, 1000, nil, "", func(*Message) {})
	ser1 := float64(d1 - p.Latency)
	sim2 := des.New()
	n2 := twoSiteNet(sim2)
	d2, _ := n2.Send(0, 2, 4000, nil, "", func(*Message) {})
	ser2 := float64(d2 - p.Latency)
	if math.Abs(ser2/ser1-4) > 0.01 {
		t.Fatalf("serialisation not linear: %v vs %v", ser1, ser2)
	}
}

func TestAddNodeValidation(t *testing.T) {
	n := twoSiteNet(des.New())
	defer func() {
		if recover() == nil {
			t.Error("AddNode with bad site did not panic")
		}
	}()
	n.AddNode(5)
}

package netsim_test

import (
	"testing"

	"aiac/internal/des"
	"aiac/internal/netsim"
)

// Network.Send with its delivery allocates nothing in steady state: the
// message is its own event target and goes back on the network's free list
// when its deliver callback returns, the FIFO clamp and the egress pipes
// are slice lookups, and SendOpt is a value.
func TestNetsimSendAllocs(t *testing.T) {
	sim := des.New()
	site := func(name string) netsim.Site {
		return netsim.Site{Name: name, Uplink: netsim.Ethernet10, LANs: []netsim.LinkClass{netsim.Ethernet10}}
	}
	hub := netsim.Site{Name: "hub", Uplink: netsim.Ethernet10, LANs: []netsim.LinkClass{netsim.Ethernet10Hub}}
	net := netsim.New(sim, []netsim.Site{site("a"), site("b"), hub})
	a, b, c := net.AddNode(0), net.AddNode(1), net.AddNode(2)
	net.SetJitter(0.02, 1)
	net.SetLoss(0.3)
	delivered := 0
	deliver := func(*netsim.Message) { delivered++ }
	const sends = 64
	burst := func() {
		for i := 0; i < sends; i++ {
			to := b
			if i%4 == 0 {
				to = c // the store-and-forward stage of a shared segment
			}
			if _, err := net.Send(a, to, 1200, nil, "", deliver, netsim.Unreliable()); err != nil {
				t.Fatal(err)
			}
		}
		sim.Run()
	}
	burst() // grows the event queue and the tables
	if n := testing.AllocsPerRun(20, burst); n != 0 {
		t.Errorf("%d Send+delivery pairs allocate %.0f; want 0 (every Message recycled)", sends, n)
	}
	if delivered != 22*sends {
		t.Errorf("delivered %d messages; want %d", delivered, 22*sends)
	}
}

package envcore

import (
	"testing"

	"aiac/internal/aiac"
	"aiac/internal/cluster"
	"aiac/internal/des"
	"aiac/internal/netsim"
)

// Two ranks send one 80 KB message each (past the rendezvous threshold,
// more than the socket buffer) to a single-threaded receiver on 10 Mbit/s
// Ethernet. With backpressure the second message waits for the receiver
// to drain the first: both still arrive, and the second never earlier
// than without backpressure.
func TestBackpressureNeverDeliversEarlier(t *testing.T) {
	deliveries := func(bp bool) []des.Time {
		sim := des.New()
		grid := cluster.Homogeneous(sim, 3, cluster.P4_2400, netsim.Ethernet10)
		opts := testOpts(RecvSingleThread)
		opts.Backpressure = bp
		opts.RendezvousBytes = 16 << 10
		opts.SocketBufBytes = 32 << 10
		env := MustNew(grid, opts)
		var times []des.Time
		env.Comm(2).SetDataSink(func(m aiac.DataMsg) { times = append(times, sim.Now()) })
		vals := make([]float64, 10000) // 80 KB
		for _, from := range []int{0, 1} {
			sim.SpawnTask("s", func(p *des.Proc) {
				env.Comm(from).TrySendData(p, aiac.Outgoing{To: 2, Key: from, Values: vals})
			})
		}
		sim.Run()
		return times
	}
	free, held := deliveries(false), deliveries(true)
	if len(free) != 2 || len(held) != 2 {
		t.Fatalf("deliveries without backpressure %v, with %v: want two each", free, held)
	}
	if held[1] < free[1] {
		t.Errorf("backpressure delivered the second message at %v, before %v without it", held[1], free[1])
	}
	t.Logf("second delivery at %v without backpressure, %v with", free[1], held[1])
}

package envcore

import (
	"fmt"
	"testing"
	"time"

	"aiac/internal/aiac"
	"aiac/internal/cluster"
	"aiac/internal/des"
	"aiac/internal/netsim"
)

func TestMechProbe(t *testing.T) {
	for _, bp := range []bool{false, true} {
		sim := des.New()
		grid := cluster.Homogeneous(sim, 3, cluster.P4_2400, netsim.Ethernet10)
		opts := testOpts(RecvSingleThread)
		opts.Backpressure = bp
		opts.RendezvousBytes = 16 << 10
		opts.SocketBufBytes = 32 << 10
		env := MustNew(grid, opts)
		var times []des.Time
		env.Comm(2).SetDataSink(func(m aiac.DataMsg) { times = append(times, sim.Now()) })
		vals := make([]float64, 10000) // 80KB
		for _, from := range []int{0, 1} {
			from := from
			sim.SpawnTask("s", func(p *des.Proc) {
				env.Comm(from).TrySendData(p, aiac.Outgoing{To: 2, Key: from, Values: vals})
			})
		}
		sim.Run()
		fmt.Printf("backpressure=%v deliveries=%v\n", bp, times)
		_ = time.Second
	}
}

package bench

// The simulated message path (MSGPATH.md): what one message costs between
// the sender's pack charge and the receiver's wake-up, pinned where it can
// be pinned — in allocations — and measured where it cannot.

import (
	"fmt"
	"testing"

	"aiac/internal/aiac"
	"aiac/internal/des"
	"aiac/internal/matrix"
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

// exchangePair is two ranks of one environment on the local grid, each
// ready to play lockstep SyncExchangeK rounds of one message each way with
// pooled snapshots — what the engine's runSync does per iteration.
type exchangePair struct {
	sim   *des.Simulator
	net   *netsim.Network
	tasks [2]*des.Proc
	left  [2]int
}

func newExchangePair(tb testing.TB, envName string, values int) *exchangePair {
	tb.Helper()
	sim := des.New()
	grid, err := matrix.NewGrid(sim, "local", 2)
	if err != nil {
		tb.Fatal(err)
	}
	env, err := matrix.NewEnv(grid, envName, true, nil)
	if err != nil {
		tb.Fatal(err)
	}
	x := &exchangePair{sim: sim, net: grid.Net}
	for r := 0; r < 2; r++ {
		comm := env.Comm(r)
		comm.ResetSession()
		ghost := make([]float64, values)
		comm.SetDataSink(func(m aiac.DataMsg) { copy(ghost, m.Values) })
		block := make([]float64, values)
		out := make([]aiac.Outgoing, 1)
		iter := 0
		var loop func()
		loop = func() {
			if x.left[r] == 0 {
				x.tasks[r].ParkK(loop)
				return
			}
			x.left[r]--
			iter++
			out[0] = aiac.Outgoing{To: 1 - r, Key: r, Iter: iter, Values: comm.Snapshot(block), Pooled: true}
			comm.SyncExchangeK(x.tasks[r], out, 1, loop)
		}
		x.tasks[r] = sim.SpawnTask(fmt.Sprintf("rank%d", r), func(*des.Proc) { loop() })
	}
	sim.Run()
	return x
}

// play runs n more rounds and returns how many messages they moved.
func (x *exchangePair) play(n int) uint64 {
	before := x.net.StatsSnapshot().Messages
	for r := range x.tasks {
		x.left[r] = n
		x.tasks[r].Unpark()
	}
	x.sim.Run()
	return x.net.StatsSnapshot().Messages - before
}

// exchangeAllocsPerMessage are the pinned steady-state allocations of one
// message of a lockstep exchange, per environment (that is, per receive
// model): none on any. The netsim Message and the wire are recycled when
// the message is delivered and incorporated; mono-threaded mpi's exchange
// and madmpi's receive thread build their continuations once per endpoint
// and per thread; the handler thread pm2 and omniorb give every message is
// a parked process of the endpoint's pool, with continuations built once.
var exchangeAllocsPerMessage = map[string]float64{
	"mpi":     0,
	"pm2":     0,
	"madmpi":  0,
	"omniorb": 0,
}

func TestSyncExchangeAllocs(t *testing.T) {
	const rounds = 50
	for _, envName := range matrix.EnvNames {
		t.Run(envName, func(t *testing.T) {
			x := newExchangePair(t, envName, 150)
			if msgs := x.play(rounds); msgs != 2*rounds {
				t.Fatalf("%d rounds moved %d messages; want %d", rounds, msgs, 2*rounds)
			}
			perMsg := testing.AllocsPerRun(10, func() { x.play(rounds) }) / (2 * rounds)
			if want := exchangeAllocsPerMessage[envName]; perMsg != want {
				t.Errorf("one exchanged message allocates %.2f; want %.2f", perMsg, want)
			}
			x.sim.Shutdown()
		})
	}
}

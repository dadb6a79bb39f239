package envcore_test

// The simulated message path (MSGPATH.md): what one message costs between
// the sender's pack charge and the receiver's wake-up, pinned where it can
// be pinned — in allocations — and measured where it cannot.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"aiac/internal/aiac"
	"aiac/internal/des"
	"aiac/internal/ladder"
	"aiac/internal/matrix"
	"aiac/internal/netsim"
)

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

// One message of a steady-state lockstep exchange allocates nothing on any
// environment, that is, on any receive model. The netsim Message and the
// wire are recycled when the message is delivered and incorporated;
// mono-threaded mpi's exchange and madmpi's receive thread build their
// continuations once per endpoint and per thread; the handler thread pm2
// and omniorb give every message is a parked process of the endpoint's
// pool, with continuations built once.
func TestSyncExchangeAllocs(t *testing.T) {
	const rounds = 50
	for _, envName := range matrix.EnvNames {
		t.Run(envName, func(t *testing.T) {
			x := newExchangePair(t, envName, 150)
			if msgs := x.play(rounds); msgs != 2*rounds {
				t.Fatalf("%d rounds moved %d messages; want %d", rounds, msgs, 2*rounds)
			}
			perMsg := testing.AllocsPerRun(10, func() { x.play(rounds) }) / (2 * rounds)
			if perMsg != 0 {
				t.Errorf("one exchanged message allocates %.2f; want 0", perMsg)
			}
			x.sim.Shutdown()
		})
	}
}

const msgPathShipped = "recycled handlers, wires and messages"

var (
	allocsCol = "allocs/message (" + strings.Join(matrix.EnvNames, " / ") + ")"
	nsCol     = "ns/message (" + strings.Join(matrix.EnvNames, " / ") + ")"
)

// TestLadderMsgPath measures MSGPATH.md's per-message cells of the shipped
// row on the exchange harness above: allocations per message, and ns per
// message, the fastest of five passes of 4000 messages, per environment.
func TestLadderMsgPath(t *testing.T) {
	doc := ladder.Open(t, ladder.Spec{Doc: "MSGPATH.md", Tables: []ladder.Table{{
		Anchor: "| rung |", Key: []string{"rung"}, Rows: []string{msgPathShipped}, Cols: []string{allocsCol, nsCol},
	}}})
	if !ladder.Gate(t) {
		return
	}
	const rounds = 50
	var allocs, ns []string
	for _, envName := range matrix.EnvNames {
		x := newExchangePair(t, envName, 150)
		x.play(rounds)
		allocs = append(allocs, fmt.Sprintf("%.0f", testing.AllocsPerRun(10, func() { x.play(rounds) })/(2*rounds)))
		best := time.Duration(-1)
		for pass := 0; pass < 5; pass++ {
			t0 := time.Now()
			msgs := x.play(2000)
			if d := time.Since(t0) / time.Duration(msgs); best < 0 || d < best {
				best = d
			}
		}
		ns = append(ns, fmt.Sprint(best.Nanoseconds()))
		x.sim.Shutdown()
	}
	tab := doc.Table("| rung |")
	tab.Setf(msgPathShipped, allocsCol, "%s", strings.Join(allocs, " / "))
	tab.Setf(msgPathShipped, nsCol, "%s", strings.Join(ns, " / "))
	doc.Finish()
}

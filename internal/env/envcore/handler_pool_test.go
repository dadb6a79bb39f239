package envcore_test

// TestHandlerPoolBursts pins the receive model that gives every message a
// thread of its own (RecvOnDemand: pm2, omniorb) where its threads pile up:
// bursts of 1, 2 and 8 data messages reaching one endpoint at the same
// instant, each burst followed by a second one while the first one's
// handlers still run, with the thread-creation cost and the dispatch latency
// each on and off. Every row is the event count of the run, the instant of
// the last delivery and the digest of every data-sink call (instant, sender,
// key, iteration, values) in call order and of every traced message.
//
// The oracle is testdata/handler_pool.jsonl, recorded from the engine that
// spawned a fresh handler process per message. Re-record, on purpose only,
// with
//
//	GOLDEN_WRITE=1 go test -run TestHandlerPoolBursts ./internal/env/envcore
//
// and quote the summary of what moved that it prints.

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
	"time"

	"aiac/internal/aiac"
	"aiac/internal/cluster"
	"aiac/internal/des"
	"aiac/internal/env/envcore"
	"aiac/internal/env/orb"
	"aiac/internal/env/pm2"
	"aiac/internal/golden"
	"aiac/internal/netsim"
	"aiac/internal/trace"
)

const handlerPoolFile = "testdata/handler_pool.jsonl"

// burstRow runs one case: k senders (ranks 1..k) each send rank 0 one
// message at t = 0 and another at t = 300 µs, on two channels.
func burstRow(envName string, costs envcore.CostModel, k int, spawn, latency bool) []golden.Field {
	sim := des.New()
	grid := cluster.Homogeneous(sim, k+1, cluster.P4_2400, netsim.Ethernet100)
	if !latency {
		costs.RecvLatency = 0
	}
	for _, m := range grid.Machines {
		if !spawn {
			m.CPU.SpawnCost = 0
		}
	}
	tr := trace.New()
	env := envcore.MustNew(grid, envcore.Options{
		Name: envName, Costs: costs, SendThreads: 1, RecvModel: envcore.RecvOnDemand, Trace: tr,
	})
	var sinks strings.Builder
	var last des.Time
	env.Comm(0).SetDataSink(func(m aiac.DataMsg) {
		last = sim.Now()
		fmt.Fprintln(&sinks, sim.Now(), m.From, m.Key, m.Iter, m.Values)
	})
	for r := 1; r <= k; r++ {
		comm := env.Comm(r)
		comm.ResetSession()
		vals := make([]float64, 150)
		for i := range vals {
			vals[i] = float64(r*1000 + i)
		}
		send := func(p *des.Proc, key, iter int) {
			comm.TrySendData(p, aiac.Outgoing{To: 0, Key: key, Iter: iter, Values: comm.Snapshot(vals), Pooled: true})
		}
		sim.SpawnTask(fmt.Sprintf("sender%d", r), func(p *des.Proc) {
			send(p, 2*r, 1)
			p.SleepK(300*time.Microsecond, func() { send(p, 2*r+1, 2) })
		})
	}
	sim.Run()
	h := sha256.New()
	fmt.Fprint(h, sinks.String())
	fmt.Fprintln(h, tr.Msgs)
	return []golden.Field{
		{Name: "events", Value: sim.Events()}, {Name: "last_delivery_ns", Value: last},
		{Name: "digest", Value: fmt.Sprintf("%x", h.Sum(nil)[:8])},
	}
}

func TestHandlerPoolBursts(t *testing.T) {
	envs := []struct {
		name  string
		costs envcore.CostModel
	}{{"pm2", pm2.Costs}, {"omniorb", orb.Costs}}
	var rows []golden.Row
	for _, e := range envs {
		for _, k := range []int{1, 2, 8} {
			for _, spawn := range []bool{true, false} {
				for _, latency := range []bool{true, false} {
					rows = append(rows, golden.Row{
						Key:    fmt.Sprintf("%s/burst%d/spawn=%t/latency=%t", e.name, k, spawn, latency),
						Fields: burstRow(e.name, e.costs, k, spawn, latency),
					})
				}
			}
		}
	}
	golden.Check(t, handlerPoolFile, rows)
}

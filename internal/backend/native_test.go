package backend_test

// NATIVE.md: what a shaped native link delivers, and the ladder of the
// native message path. Table 1 is measured on every run. Table 2's rows
// below the last are recorded rows of the doc alone (scratch states of the
// tree, their code never shipped); the last row, the shipped path, is
// validated anew on every run.

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"aiac/internal/aiac"
	"aiac/internal/backend"
	"aiac/internal/ladder"
	"aiac/internal/matrix"
	"aiac/internal/problems"
	"aiac/internal/transport"
)

// nativeDelays are Table 1's requested one-way delays: the multiproto and
// local grids' links, the runtime's timer floor, and two WAN-scale delays.
var nativeDelays = []time.Duration{
	50 * time.Microsecond, 200 * time.Microsecond, time.Millisecond,
	5 * time.Millisecond, 25 * time.Millisecond,
}

// shapedLatencies sends n data messages one after another over a 2-rank
// transport whose links are shaped at d and returns each one's latency,
// from just before Send to the receiving handler, sorted.
func shapedLatencies(tr transport.Transport, d time.Duration, n int) ([]time.Duration, error) {
	tr.ShapeAll(transport.Shaping{Delay: d})
	arrived := make(chan time.Time, 1)
	tr.SetHandler(0, func(transport.Msg) {})
	tr.SetHandler(1, func(transport.Msg) { arrived <- time.Now() })
	if err := tr.Start(); err != nil {
		return nil, err
	}
	defer tr.Close()
	lat := make([]time.Duration, n)
	for i := range lat {
		t0 := time.Now()
		if err := tr.Send(0, 1, transport.Msg{Type: transport.MsgData, Key: 1, Seq: int32(i)}); err != nil {
			return nil, err
		}
		lat[i] = (<-arrived).Sub(t0)
	}
	slices.Sort(lat)
	return lat, nil
}

// nativeSpecs are the native cells a valid row must converge: the repo
// benchmark's native-loopback cells (multiproto links, 50 µs) and the local
// grid's (200 µs), both transports, both modes.
var nativeSpecs = []matrix.Spec{
	{
		Modes: matrix.Modes, Grids: []string{"multiproto"}, Problems: []string{"linear"},
		Procs: []int{2}, Sizes: []int{60000}, Backends: []string{"chan", "tcp"},
		Linear: matrix.LinearParams{Diags: 12, Rho: 0.995, Eps: 1e-5, MaxIters: 3000000},
	},
	{
		Modes: matrix.Modes, Grids: []string{"local"}, Problems: []string{"linear"},
		Procs: []int{4}, Sizes: []int{6000}, Backends: []string{"chan", "tcp"},
		Linear: matrix.LinearParams{Diags: 12, Rho: 0.85, Eps: 1e-5, MaxIters: 3000000},
	},
}

// syncHaloBytes is the allocation of a 2-rank SISC solve over the
// in-process transport per lockstep iteration, both ranks together — the
// difference of two capped solves, so set-up cancels — and the size of
// the solve's smallest halo segment.
func syncHaloBytes(t *testing.T) (perIter float64, halo int) {
	prob := problems.NewLinear(4000, 10, 0.7, 2)
	for _, targets := range aiac.BuildSendPlan(prob, prob.PartitionBounds(2)).Targets {
		for _, tg := range targets {
			if halo == 0 || 8*tg.Seg.Len() < halo {
				halo = 8 * tg.Seg.Len()
			}
		}
	}
	solve := func(iters int) (uint64, int) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rep, err := backend.Run(prob, transport.NewChan(2), backend.Config{Mode: aiac.Sync, Eps: 1e-300, MaxIters: iters, Timeout: time.Minute})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, rep.ItersPerRank[0]
	}
	b1, i1 := solve(500)
	b2, i2 := solve(1500)
	if i2 <= i1 {
		t.Fatalf("capped solves ran %d and %d iterations", i1, i2)
	}
	return float64(b2-b1) / float64(i2-i1), halo
}

// The native sync loop snapshots its halos into buffers allocated once per
// solve: a 2-rank SISC solve over the in-process transport allocates, per
// lockstep iteration and over both ranks, less than one halo segment.
func TestSyncHaloAllocs(t *testing.T) {
	perIter, halo := syncHaloBytes(t)
	t.Logf("%.0f B per lockstep iteration; one halo segment is %d B", perIter, halo)
	if perIter >= float64(halo) {
		t.Errorf("sync solve allocates %.0f B per lockstep iteration; want < one halo segment (%d B)", perIter, halo)
	}
}

const nativeShipped = "yield + halo/frame reuse"

// nativeSpec is what TestLadderNative measures in NATIVE.md.
func nativeSpec() ladder.Spec {
	var rows []string
	for _, d := range nativeDelays {
		for _, tr := range []string{"chan", "tcp"} {
			rows = append(rows, tr+" | "+fmtLatency(d))
		}
	}
	return ladder.Spec{Doc: "NATIVE.md", Tables: []ladder.Table{
		{Anchor: "Table 1:", Key: []string{"transport", "requested"}, Rows: rows,
			Cols: []string{"valid", "messages", "early", "min", "median", "p90"}},
		{Anchor: "Table 2:", Key: []string{"rung"}, Rows: []string{nativeShipped},
			Cols: []string{"valid", "chan 50 µs median", "sync B/iter"}},
	}}
}

// TestLadderNative always checks (about a second) that no shaped message
// arrives before its delay, 20 a link, and that the shipped row's recorded
// peak_rss_mb median stays inside the benchmark's 10 % bound of the
// parent row's. Measured, it times Table 1 at 100 messages a link, checks
// that every native cell of nativeSpecs converges within 100·Eps/(1−Rho)
// of the true solution (kept out of the plain test run: eight spinning
// native cells would load both cores under the load-sensitive backend
// tests beside them), and adds the checks that live elsewhere — the
// transport and backend tests under -race and the codec fuzz target.
func TestLadderNative(t *testing.T) {
	doc := ladder.Open(t, nativeSpec())
	gate := ladder.Gate(t)
	msgs := 20
	if gate {
		msgs = 100
	}
	latency, rungs := doc.Table("Table 1:"), doc.Table("Table 2:")
	valid := true
	var chanMed time.Duration
	for _, d := range nativeDelays {
		for _, name := range []string{"chan", "tcp"} {
			tr, err := backend.NewTransport(name, 2)
			if err != nil {
				t.Fatal(err)
			}
			lat, err := shapedLatencies(tr, d, msgs)
			if err != nil {
				t.Fatal(err)
			}
			early := 0
			for _, l := range lat {
				if l < d {
					early++
				}
			}
			if early > 0 {
				valid = false
				t.Errorf("%s at %v: %d of %d messages arrived early (first after %v)", name, d, early, msgs, lat[0])
			}
			if name == "chan" && d == nativeDelays[0] {
				chanMed = lat[msgs/2]
			}
			if !gate {
				continue
			}
			row := name + " | " + fmtLatency(d)
			latency.Setf(row, "valid", "%d", ladder.Bit(early == 0))
			latency.Setf(row, "messages", "%d", msgs)
			latency.Setf(row, "early", "%d", early)
			latency.Setf(row, "min", "%s", fmtLatency(lat[0]))
			latency.Setf(row, "median", "%s", fmtLatency(lat[msgs/2]))
			latency.Setf(row, "p90", "%s", fmtLatency(lat[msgs*9/10]))
		}
	}
	if parent, got := rungs.Median("parent", "peak_rss_mb"), rungs.Median(nativeShipped, "peak_rss_mb"); got > 1.1*parent {
		valid = false
		t.Errorf("recorded peak_rss_mb median %.1f is past the benchmark's 10%% bound of the parent's %.1f", got, parent)
	}
	if !gate {
		return
	}
	for _, spec := range nativeSpecs {
		bound := 100 * spec.Linear.Eps / (1 - spec.Linear.Rho)
		for _, c := range spec.Cells() {
			r, err := matrix.RunCellOnce(c, spec, 0, 20040426, time.Minute, nil)
			if err != nil || !r.Converged || r.Residual > bound {
				valid = false
				t.Errorf("%s: converged=%v residual %.3g (bound %.3g), err %v", c.Key(), r.Converged, r.Residual, bound, err)
			}
		}
	}
	for _, args := range [][]string{
		{"go", "test", "-race", "-count=1", "./internal/transport", "./internal/backend"},
		{"go", "test", "-run", "^$", "-fuzz", "FuzzDecodeHeader", "-fuzztime", "10s", "./internal/transport"},
	} {
		if out, err := ladder.Run(false, args...); err != nil {
			valid = false
			t.Errorf("%s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
	syncBytes, _ := syncHaloBytes(t)
	rungs.Setf(nativeShipped, "valid", "%d", ladder.Bit(valid))
	rungs.Setf(nativeShipped, "chan 50 µs median", "%s", fmtLatency(chanMed))
	rungs.Setf(nativeShipped, "sync B/iter", "%.0f", syncBytes)
	doc.Finish()
}

func fmtLatency(d time.Duration) string {
	return fmt.Sprintf("%.3f ms", float64(d)/float64(time.Millisecond))
}

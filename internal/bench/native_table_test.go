package bench

// NATIVE.md: what a shaped native link delivers, and the ladder of the
// native message path. Table 1 is measured on every run. Table 2's rows
// below the last are scratch states of the tree (measured when the ladder
// was built, their code never shipped); the last row, the shipped path, is
// validated anew on every run.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"aiac/internal/aiac"
	"aiac/internal/backend"
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

// latencyRow is one row of Table 1.
type latencyRow struct {
	transport      string
	delay          time.Duration
	n, early       int
	min, med, p90v time.Duration
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

// nativeRung is one row of Table 2.
type nativeRung struct {
	name, note string
	valid      bool
	chanMed    string  // chan link at 50 µs: median delivered latency
	syncBytes  float64 // syncHaloBytes
	hostS      string  // native-loopback host_s, every run made
	iters      string  // native-loopback iters_per_s, the same runs
	rss        string  // native-loopback peak_rss_mb, the same runs
	allocMB    string  // runtime.alloc_mb of one traced pass
}

// recordedNativeRungs are the rows below the shipped one, measured on the
// reference box (2 cores, go1.24.0) when the ladder was built, in a copy
// of the tree with the rung applied: chanMed and syncBytes by this file
// dropped into the copy; host_s, iters_per_s and peak_rss_mb by the repo
// benchmark (native-loopback, --seconds 8 --trace 0, seed 20040426), the
// four rungs rotated; allocMB by one --trace 1 run. valid as for the
// shipped row, checked in the copy.
var recordedNativeRungs = []nativeRung{
	{name: "parent", valid: true, chanMed: "1.068 ms", syncBytes: 33737,
		hostS: "2.947 3.003 3.006", iters: "314 326 330", rss: "86.9 87.3 88.3", allocMB: "1247.6",
		note: "every shaped wait is a runtime timer, rounded up to the netpoller's millisecond; runSync snapshots each halo into a fresh slice, the TCP reader allocates a frame body and DecodeMsg a Values slice per message"},
	{name: "nanosleep", valid: true, chanMed: "0.102 ms", syncBytes: 33737,
		hostS: "0.776 0.732 0.880", iters: "1140 1125 1093", rss: "98.6 95.4 89.4", allocMB: "1710.7",
		note: "not shipped: a wait below 1 ms is nanosleep(2) on the link goroutine's thread, repeated until due (the runtime's preemption signal cuts a sleep short: a single sleep delivered one 200 µs message of 100 after 51 µs); late by the kernel's 50 µs timer slack, and the thread leaves the scheduler for every message; keeps the parent's per-message garbage"},
	{name: "sub-ms yield", valid: false, chanMed: "0.050 ms", syncBytes: 33736,
		hostS: "0.482 0.489 0.480", iters: "2004 1972 1983", rss: "93.0 96.5 97.1", allocMB: "1194.1",
		note: "not shipped: the shipped wait alone; more passes fit in a run and the parent's per-message garbage lifts peak_rss_mb past the benchmark's 10 % bound (median +10.5 %)"},
}

// nativeShippedRecorded is what of the shipped row a test cannot measure:
// the benchmark's runs, made in the same rotation as the rows above.
var nativeShippedRecorded = nativeRung{hostS: "0.470 0.435 0.438", iters: "2010 2053 2111", rss: "87.1 86.4 89.2", allocMB: "127.7"}

const nativeShippedName = "yield + halo/frame reuse"

// TestNativeTable is the gate and the generator of NATIVE.md. The gate
// always runs (about a second): no shaped message arrives before its
// delay, and the recorded peak_rss_mb stays inside the benchmark's bound.
// The generator measures Table 1 at its full message count, checks that
// every native cell of nativeSpecs converges within 100·Eps/(1−Rho) of
// the true solution (kept out of the plain test run: eight spinning
// native cells would load both cores under the load-sensitive backend
// tests beside them), adds the checks that live elsewhere — the transport
// and backend tests under -race and the codec fuzz target — and writes
// the file:
//
//	NATIVE_WRITE=NATIVE.md go test -run TestNativeTable ./internal/bench
//
// NATIVE_WRITE is a path relative to the repository root (or absolute).
func TestNativeTable(t *testing.T) {
	write := os.Getenv("NATIVE_WRITE")
	msgs := 20
	if write != "" {
		msgs = 100
	}
	shipped := nativeShippedRecorded
	shipped.name, shipped.valid = nativeShippedName, true
	shipped.note = "a wait below the runtime's 1 ms timer floor yields (runtime.Gosched until due); runSync snapshots into per-target buffers allocated once; each TCP reader decodes into one frame and one Values buffer"
	var rows []latencyRow
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
			row := latencyRow{transport: tr.Name(), delay: d, n: msgs, min: lat[0], med: lat[msgs/2], p90v: lat[msgs*9/10]}
			for _, l := range lat {
				if l < d {
					row.early++
				}
			}
			if row.early > 0 {
				shipped.valid = false
				t.Errorf("%s at %v: %d of %d messages arrived early (first after %v)", row.transport, d, row.early, msgs, row.min)
			}
			if row.transport == "chan" && d == nativeDelays[0] {
				shipped.chanMed = fmtLatency(row.med)
			}
			rows = append(rows, row)
		}
	}
	shipped.syncBytes, _ = syncHaloBytes(t)
	if parent, got := medianOf(recordedNativeRungs[0].rss), medianOf(shipped.rss); got > 1.1*parent {
		shipped.valid = false
		t.Errorf("recorded peak_rss_mb median %.1f is past the benchmark's 10%% bound of the parent's %.1f", got, parent)
	}
	if write == "" {
		return
	}
	for _, spec := range nativeSpecs {
		bound := 100 * spec.Linear.Eps / (1 - spec.Linear.Rho)
		for _, c := range spec.Cells() {
			r, err := matrix.RunCellOnce(c, spec, 0, refSeed, time.Minute, nil)
			if err != nil || !r.Converged || r.Residual > bound {
				shipped.valid = false
				t.Errorf("%s: converged=%v residual %.3g (bound %.3g), err %v", c.Key(), r.Converged, r.Residual, bound, err)
			}
		}
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"go", "test", "-race", "-count=1", "./internal/transport", "./internal/backend"},
		{"go", "test", "-run", "^$", "-fuzz", "FuzzDecodeHeader", "-fuzztime", "10s", "./internal/transport"},
	} {
		if out, err := runIn(root, args...); err != nil {
			shipped.valid = false
			t.Errorf("%s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
	table := nativeLatencyMarkdown(rows) + "\n" + nativeRungMarkdown(append(append([]nativeRung(nil), recordedNativeRungs...), shipped))
	t.Logf("native tables:\n%s", table)
	if !filepath.IsAbs(write) {
		write = filepath.Join(root, write)
	}
	if err := os.WriteFile(write, []byte(strings.Replace(nativeDoc, "%s", table, 1)), 0o644); err != nil {
		t.Fatalf("writing %s: %v", write, err)
	}
	t.Logf("wrote %s", write)
}

// medianOf is the median of a space-separated list of recorded runs.
func medianOf(runs string) float64 {
	var v []float64
	for _, f := range strings.Fields(runs) {
		if x, err := strconv.ParseFloat(f, 64); err == nil {
			v = append(v, x)
		}
	}
	slices.Sort(v)
	return v[len(v)/2]
}

func fmtLatency(d time.Duration) string {
	return fmt.Sprintf("%.3f ms", float64(d)/float64(time.Millisecond))
}

func nativeLatencyMarkdown(rows []latencyRow) string {
	var sb strings.Builder
	sb.WriteString("Table 1: requested vs delivered one-way latency.\n\n")
	sb.WriteString("| valid | transport | requested | messages | early | min | median | p90 |\n")
	sb.WriteString("|---|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		valid := 0
		if r.early == 0 {
			valid = 1
		}
		fmt.Fprintf(&sb, "| %d | %s | %s | %d | %d | %s | %s | %s |\n",
			valid, r.transport, fmtLatency(r.delay), r.n, r.early, fmtLatency(r.min), fmtLatency(r.med), fmtLatency(r.p90v))
	}
	return sb.String()
}

func nativeRungMarkdown(rows []nativeRung) string {
	var sb strings.Builder
	sb.WriteString("Table 2: the rungs.\n\n")
	sb.WriteString("| valid | rung | chan 50 µs median | sync B/iter | native-loopback host_s | iters_per_s | peak_rss_mb | alloc MB/pass | note |\n")
	sb.WriteString("|---|---|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		valid := 0
		if r.valid {
			valid = 1
		}
		fmt.Fprintf(&sb, "| %d | %s | %s | %.0f | %s | %s | %s | %s | %s |\n",
			valid, r.name, r.chanMed, r.syncBytes, r.hostS, r.iters, r.rss, r.allocMB, r.note)
	}
	return sb.String()
}

const nativeDoc = `# Native links — measured

Generated, and the shipped row checked, by:

    NATIVE_WRITE=NATIVE.md go test -run TestNativeTable ./internal/bench

(about half a minute: it runs the native cells, the transport and backend
tests under -race and fuzzes the frame decoder for ten seconds besides its
own checks; without NATIVE_WRITE the test checks only that no message is
early and the recorded peak_rss_mb, and takes about a second).

A native cell's links are shaped on the sender side: internal/transport's
link goroutine holds every message until its enqueue time plus the link's
Delay. The multiproto grid's links are 50 µs, the local grid's 200 µs.
Until this ladder every wait was a runtime timer, and on Linux the Go
runtime's netpoller sleeps in whole milliseconds, so every sub-millisecond
link delivered after about 1.06 ms: a 50 µs link was 21 times slower than
it said, and every native time and sim-vs-native calibration ratio of the
fast grids was measured on the wrong link.

Table 1 is measured by the generator: for each transport and requested
delay, 100 data messages sent one after another over a 2-rank transport
(20 when the test runs as a gate), each timed from just before Send to the
receiving handler. "early" counts messages delivered before the requested
delay; "valid" = 1 means none was. A link waits out what is left of the
delay when its goroutine takes the message: below the runtime's 1 ms
timer floor it yields (a 1 ms link's wait is already a little short of
it), from there up it waits on a timer, whose rounding — a tenth of a
millisecond or two — is small against the delay.

Table 2 lists the rungs. "chan 50 µs median" is Table 1's cell for the
rung. "sync B/iter" is what a 2-rank SISC solve over the in-process
transport allocates per lockstep iteration, both ranks together (n=4000,
one halo segment is 14 520 B; the pin TestSyncHaloAllocs demands less
than one segment). "native-loopback host_s", "iters_per_s" and
"peak_rss_mb" list every run made with the repo benchmark (--seconds 8
--trace 0, seed 20040426, 2 cores, go1.24.0), the four rungs rotated so
that each rotation ran every rung once; "alloc MB/pass" is
runtime.alloc_mb of one --trace 1 run (a faster rung runs more async
iterations per pass, so the column is per pass, not per message).

"valid" = 1 means all of: no shaped message arrives early (Table 1); the
transport and backend tests pass under -race; every native cell of the
benchmark's native-loopback workload (multiproto, p=2, n=60000, both
transports and modes) and of the local grid (p=4, n=6000) converges with
a residual of at most 100·Eps/(1−Rho); the frame decoder's fuzz target
(FuzzDecodeHeader, which also decodes into a dirty reused buffer) passes
for ten seconds; and peak_rss_mb stays within the benchmark's 10 % bound
of the parent's. For the last row the generator checks all of it but the
last each time it runs (the last is in its recorded runs); the rows above
are scratch copies of the tree, checked when the ladder was built.

%s
Shipped: the last row.

- **Yield below the timer floor.** transport's link.run hands a wait of
  1 ms or more to a runtime timer, as before; a shorter one is spent in
  runtime.Gosched until the message is due, checking for Close on every
  turn. The constant is transport.timerFloor, not a setting.
- **No per-message garbage on the native path.** runSync snapshots each
  round's halo into per-target buffers allocated once per solve (after the
  round's sends have all returned they are free again); each TCP reader
  decodes every frame of its connection into one frame buffer and one
  Values buffer. The transport.Handler contract says m.Values is valid
  only for the duration of the call, which the in-process transport
  already relied on.
- **Not shipped: nanosleep.** A nanosleep(2) on the link goroutine's
  thread, repeated until due, is never early, but the kernel's 50 µs
  timer slack makes a 50 µs link a 100 µs one, and it is slower end to
  end: the thread leaves the scheduler for every message.
`

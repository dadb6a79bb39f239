package bench

// MSGPATH.md: the ladder of the simulated message path. Every rung keeps
// every event and its (at, seq) order and makes the events cheaper; the
// rungs below the last are scratch states of the tree that no longer
// exist — the point of the change was to delete their code — so their
// rows are the measurements recorded when the ladder was built, and the
// last row, the shipped path, is measured and validated anew on every run.

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"aiac/internal/aiac"
	"aiac/internal/des"
	"aiac/internal/golden"
	"aiac/internal/matrix"
	"aiac/internal/obs/critpath"
	"aiac/internal/problems"
	"aiac/internal/scenario"
	"aiac/internal/trace"
)

// refCells are the repo benchmark's reference cells at full size (the
// cells of TRACE.md). testdata/msgpath_cells.jsonl holds each one's
// fingerprint, frozen at the parent of the change that built the ladder (a
// path that reproduces it delivers the same messages at the same virtual
// times and attributes the same critical path), and its event count: the
// ladder kept every event, so the sync cell's is frozen with it; the async
// cells' are lazy spin's (SPIN.md), which did not move their fingerprints.
// Re-record, on purpose only, with GOLDEN_WRITE=1 go test -run
// TestMsgPathTable ./internal/bench.
var refCells = []matrix.Cell{
	{Env: "pm2", Mode: aiac.Async, Grid: "adsl", Problem: "linear", Procs: 4, Size: 12000, Scenario: "static"},
	{Env: "pm2", Mode: aiac.Async, Grid: "3site", Problem: "linear", Procs: 8, Size: 12000, Scenario: "node-churn"},
	{Env: "omniorb", Mode: aiac.Sync, Grid: "3site", Problem: "linear", Procs: 64, Size: 19200, Scenario: "static"},
}

const msgPathCells = "testdata/msgpath_cells.jsonl"

const refSeed = 20040426

func refCellName(c matrix.Cell) string {
	name := fmt.Sprintf("%s/%s/%s/p%d/n%d", c.Env, c.Mode, c.Grid, c.Procs, c.Size)
	if c.Scenario != "static" {
		name += "/" + c.Scenario
	}
	return name
}

// refRun is one traced run of a reference cell.
type refRun struct {
	events      uint64
	fingerprint string // see fingerprintCell
	iters       int
	tr          *trace.Collector
	attr        *critpath.Attribution
}

// fingerprintCell runs repetition 0 of c traced on the continuation engine,
// wired as matrix.runOnce wires it, and hashes everything virtual about the
// run: the report, every span, message and wait of the trace with their
// timestamps, and the critical-path attribution.
func fingerprintCell(c matrix.Cell) (refRun, error) {
	lp := matrix.LinearParams{Diags: 12, Rho: 0.85, Eps: 1e-5, MaxIters: 3000000, Seed: refSeed}
	scen, err := scenario.ByName(c.Scenario)
	if err != nil {
		return refRun{}, err
	}
	sim := des.New()
	grid, err := matrix.NewGrid(sim, c.Grid, c.Procs)
	if err != nil {
		return refRun{}, err
	}
	grid.Net.SetJitter(0.02, refSeed)
	tr := trace.New()
	env, err := matrix.NewEnv(grid, c.Env, true, tr)
	if err != nil {
		return refRun{}, err
	}
	rt := scenario.Deploy(scen, grid)
	prob := problems.NewLinear(c.Size, lp.Diags, lp.Rho, lp.Seed)
	rpt := aiac.Run(grid, env, prob, aiac.Config{
		Mode: c.Mode, Eps: lp.Eps, MaxIters: lp.MaxIters, Trace: tr, Dynamics: rt,
	})
	attr, ok := critpath.Analyze(tr, rpt.Elapsed)
	if !ok {
		return refRun{}, fmt.Errorf("%s: trace not attributable", refCellName(c))
	}
	h := sha256.New()
	fmt.Fprintln(h, rpt.Elapsed, rpt.Start, rpt.End, rpt.ItersPerRank, rpt.Reason, rpt.StateMsgs,
		rpt.StopRebroadcasts, rpt.Stalled, rpt.Restarts, rpt.TaintedRestarts, rpt.Heartbeats, rpt.ReconfirmRounds, rpt.Reconverge)
	fmt.Fprintln(h, rpt.X)
	fmt.Fprintln(h, grid.Net.StatsSnapshot())
	fmt.Fprintln(h, tr.Spans)
	fmt.Fprintln(h, tr.Msgs)
	fmt.Fprintln(h, tr.Waits)
	fmt.Fprintln(h, attr.Total, attr.ByCat)
	for _, s := range attr.Segs {
		via := s.Via
		s.Via = nil // a pointer: hash what it points to
		fmt.Fprintln(h, s)
		if via != nil {
			fmt.Fprintln(h, *via)
		}
	}
	run := refRun{events: sim.Events(), fingerprint: fmt.Sprintf("%x", h.Sum(nil))[:16],
		iters: rpt.TotalIters(), tr: tr, attr: attr}
	sim.Shutdown()
	return run, nil
}

// refRuns runs the reference cells once per test binary, for
// TestMsgPathTable's rows and TestSpinTable's attribution check.
var refRuns = sync.OnceValues(func() (runs []refRun, err error) {
	for _, c := range refCells {
		run, err := fingerprintCell(c)
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
	return runs, nil
})

// envCols renders one value per environment, in matrix.EnvNames order.
func envCols(format string, v map[string]float64) string {
	parts := make([]string, len(matrix.EnvNames))
	for i, name := range matrix.EnvNames {
		parts[i] = fmt.Sprintf(format, v[name])
	}
	return strings.Join(parts, " / ")
}

// pathRung is one row of MSGPATH.md.
type pathRung struct {
	name, note string
	valid      bool
	events     uint64             // des.events on the sync-exchange reference cell
	allocs     map[string]float64 // per exchanged message, per environment
	ns         map[string]float64 // per exchanged message, per environment
	computeAl  float64            // allocations of one CPU.ComputeK charge
	allocMB    float64            // runtime.alloc_mb of sync-exchange's traced run
	numGC      int                // runtime.num_gc of the same run
	hostS      string             // sync-exchange host_s, every run made
}

func perEnv(mpi, pm2, madmpi, omniorb float64) map[string]float64 {
	return map[string]float64{"mpi": mpi, "pm2": pm2, "madmpi": madmpi, "omniorb": omniorb}
}

// recordedRungs are the rows below the shipped one: each a scratch copy of
// the tree with the rungs up to it applied, measured on the reference box
// (2 cores, go1.24.0) when the ladder was built; the last of them is the
// path that shipped with the ladder, recorded as it last measured when
// handler, wire and message recycling replaced it. allocs and ns per message
// come from this file's exchange harness dropped into the copy (before
// snapshot recycling the harness snapshots with make, as the engine did);
// events, ComputeK allocations, alloc MB and GCs from `go run ./benchmark
// --workload sync-exchange --trace 1`; host_s from `--trace 0 --seconds 9`
// runs rotated over all the copies (three rotations; the first four rungs
// four more). valid = every digest of benchmark/golden.json matched on the
// four simulated workloads ("failed":0 on each) — and, for now-lane,
// DES.md's `binary-value + now-lane` row.
var recordedRungs = []pathRung{
	{name: "baseline", valid: true, events: 408569,
		note:   "the parent: heap-only queue, fn/p events, a closure per CPU slice, per delivery, per store-and-forward stage and per transmit, two maps in netsim, a fresh snapshot per send",
		allocs: perEnv(20, 32, 24, 32), ns: perEnv(2796, 2831, 2187, 3008), computeAl: 2,
		allocMB: 1580, numGC: 110, hostS: "2.96 2.64 3.01 2.63 2.94 2.67 2.53"},
	{name: "now-lane", valid: true, events: 408569,
		note:   "des: events pushed at the current instant wait in a FIFO ring, not the heap",
		allocs: perEnv(20, 32, 24, 32), ns: perEnv(1689, 2302, 1735, 2398), computeAl: 2,
		allocMB: 1580, numGC: 114, hostS: "2.70 2.48 2.51 2.62 2.65 2.59 2.41"},
	{name: "typed events + pooled requests", valid: true, events: 408569,
		note:   "des: event{at, seq, h Handler, arg}; marcel: the request is its own slice-completion target and is recycled per CPU",
		allocs: perEnv(16, 26, 20, 26), ns: perEnv(1661, 2421, 2022, 2399), computeAl: 0,
		allocMB: 1508, numGC: 108, hostS: "2.81 3.20 2.65 2.70 2.43 2.46 2.31"},
	{name: "message-as-event + dense tables", valid: true, events: 408569,
		note:   "netsim: the Message is the target of its delivery and store-and-forward events; lastDeliver and the egress pipes are per-node slices; SendOpt is a value",
		allocs: perEnv(13, 23, 17, 23), ns: perEnv(1496, 2325, 1888, 2162), computeAl: 0,
		allocMB: 1477, numGC: 106, hostS: "2.45 2.17 2.46 2.45 2.48 2.20 2.09"},
	{name: "transmit callback", valid: true, events: 408569,
		note:   "envcore: one per-Env delivery method handed to netsim as the same func value; the hop's destination, send time and size are read back from the Message",
		allocs: perEnv(11, 21, 15, 21), ns: perEnv(1506, 2176, 1763, 2480), computeAl: 0,
		allocMB: 1445, numGC: 104, hostS: "2.25 2.30 2.47"},
	{name: "snapshot recycling", valid: true, events: 408569,
		note:   "envcore + simfast: Endpoint.Snapshot / Outgoing.Pooled — the value snapshot returns to a per-Env free list when the data sink has copied it or the message is dropped",
		allocs: perEnv(10, 20, 14, 20), ns: perEnv(1070, 1603, 1152, 1686), computeAl: 0,
		allocMB: 815, numGC: 60, hostS: "2.09 2.21 2.22"},
	{name: "eventloop.go diet: names, gates, sends", valid: true, events: 408569,
		note:   "handler-task name formatted once per endpoint, one resettable gate per endpoint for exchange waits, one sends slice per rank",
		allocs: perEnv(10, 16, 12, 16), ns: perEnv(1177, 1451, 1244, 1492), computeAl: 0,
		allocMB: 750, numGC: 56, hostS: "1.95 2.05 2.07"},
	{name: "eventloop.go diet: continuations built once", valid: true, events: 408569,
		note:   "send, receive and dispatch loops and SyncExchangeK build their continuations once per thread or endpoint over one shared wire variable; a task blocked in Chan.RecvK parks on a segment built once per task",
		allocs: perEnv(2, 9, 2, 9), ns: perEnv(366, 735, 457, 768), computeAl: 0,
		allocMB: 624, numGC: 47, hostS: "1.82 1.83 1.82"},
}

// shippedRecorded is what of the shipped row a test cannot measure: the
// benchmark's own numbers, recorded when the row shipped.
var shippedRecorded = pathRung{allocMB: 331, numGC: 31, hostS: "1.92 1.80 1.90"}

// shippedRungName is the last row: the tree as it is.
const shippedRungName = "recycled handlers, wires and messages"

// measureShipped measures the shipped path's row.
func measureShipped(t *testing.T) pathRung {
	row := pathRung{
		name:   shippedRungName,
		note:   "pm2/omniorb handler threads are parked processes of a per-endpoint pool, woken by the event a spawn scheduled and still charged the spawn cost; wires, netsim Messages and the allreduce round state are recycled through intrusive free lists",
		allocs: map[string]float64{}, ns: map[string]float64{},
		allocMB: shippedRecorded.allocMB, numGC: shippedRecorded.numGC, hostS: shippedRecorded.hostS,
	}
	const rounds = 50
	for _, envName := range matrix.EnvNames {
		x := newExchangePair(t, envName, 150)
		x.play(rounds)
		row.allocs[envName] = testing.AllocsPerRun(10, func() { x.play(rounds) }) / (2 * rounds)
		best := time.Duration(-1)
		for pass := 0; pass < 5; pass++ {
			t0 := time.Now()
			msgs := x.play(2000)
			if d := time.Since(t0) / time.Duration(msgs); best < 0 || d < best {
				best = d
			}
		}
		row.ns[envName] = float64(best.Nanoseconds())
		x.sim.Shutdown()
	}
	row.computeAl = computeKAllocs(100) / 100
	return row
}

// TestMsgPathTable is the gate and the generator of MSGPATH.md. The gate
// always runs (three full-size cells on the continuation engine take about
// a second): the shipped path reproduces every reference cell's recorded
// row, its fingerprint and event count (what it allocates per message is
// pinned by TestSyncExchangeAllocs, on the harness this table measures
// with). To regenerate the committed table:
//
//	MSGPATH_WRITE=MSGPATH.md go test -run TestMsgPathTable ./internal/bench
//
// MSGPATH_WRITE is a path relative to the repository root (or absolute).
func TestMsgPathTable(t *testing.T) {
	write := os.Getenv("MSGPATH_WRITE")
	shipped := measureShipped(t)
	runs, err := refRuns()
	if err != nil {
		t.Fatal(err)
	}
	var rows []golden.Row
	var cells strings.Builder
	for i, run := range runs {
		name := refCellName(refCells[i])
		rows = append(rows, golden.Row{Key: name, Fields: []golden.Field{
			{Name: "events", Value: run.events}, {Name: "fingerprint", Value: run.fingerprint},
		}})
		fmt.Fprintf(&cells, "- `%s`: %d events, fingerprint `%s`\n", name, run.events, run.fingerprint)
		if refCells[i].Mode == aiac.Sync {
			shipped.events = run.events
		}
	}
	golden.Check(t, msgPathCells, rows)
	shipped.valid = !t.Failed()
	table := msgPathMarkdown(append(append([]pathRung(nil), recordedRungs...), shipped))
	t.Logf("message-path table:\n%s", table)
	if write == "" {
		return
	}
	if !filepath.IsAbs(write) {
		write = "../../" + write
	}
	doc := fmt.Sprintf(msgPathDoc, cells.String(), table)
	if err := os.WriteFile(write, []byte(doc), 0o644); err != nil {
		t.Fatalf("writing %s: %v", write, err)
	}
	t.Logf("wrote %s", write)
}

func msgPathMarkdown(rows []pathRung) string {
	var sb strings.Builder
	sb.WriteString("| rung | valid | des.events | allocs/message (mpi / pm2 / madmpi / omniorb) | ns/message (mpi / pm2 / madmpi / omniorb) | ComputeK allocs | alloc MB | GCs | sync-exchange host_s | note |\n")
	sb.WriteString("|---|---|---|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		valid := 0
		if r.valid {
			valid = 1
		}
		fmt.Fprintf(&sb, "| %s | %d | %d | %s | %s | %.0f | %.0f | %d | %s | %s |\n",
			r.name, valid, r.events, envCols("%.0f", r.allocs), envCols("%.0f", r.ns),
			r.computeAl, r.allocMB, r.numGC, r.hostS, r.note)
	}
	return sb.String()
}

const msgPathDoc = `# Simulated message path — measured

Generated by:

    MSGPATH_WRITE=MSGPATH.md go test -run TestMsgPathTable ./internal/bench

A simulated message crosses des, marcel, netsim and envcore: a pack charge
on the sender's CPU, the transmit, the flight, the receive model of its
environment, the wake-up of whoever waited for it. The ladder below keeps
every one of those events and its (at, seq) order — virtual time is
byte-identical by construction, "des.events" does not move — and makes each
event cheaper. Each row is the tree with the rungs up to it applied.

Columns. "des.events" is the event count of the sync-exchange reference
cell. "allocs/message" and "ns/message" are one message of a steady-state
lockstep SyncExchangeK round between two ranks on the local grid, per
environment — that is, per receive model: in place (mpi), one receiving
thread (madmpi), a thread created per message (pm2, omniorb); ns is the
fastest of five passes of 4000 messages. "ComputeK allocs" is one CPU charge
on a lone task. "alloc MB" and "GCs" are runtime.alloc_mb and
runtime.num_gc of the repo benchmark's traced sync-exchange run.
"sync-exchange host_s" lists every end-to-end run made of that rung (repo
benchmark, --seconds 9, seed 20040426, the rungs rotated so that each
rotation runs every rung once).

"valid" = 1 means:

- for the last row, checked by this command every time it runs: on the
  repo benchmark's three reference cells at full size (the cells of
  TRACE.md, seed 20040426) the shipped path reproduces the hash of
  everything virtual about the run — the report with the iterate, the
  traffic counters, every span, message and wait of the trace with its
  timestamps, and the critical-path attribution with every segment — as
  the message path did at the parent of the change that built this ladder,
  where it was frozen, and schedules exactly the events listed (the sync
  cell's count frozen with it; the async cells' counts lazy spin's, see
  SPIN.md — the ladder's own rungs kept every event):
%s- for the rows above it, which are scratch states of the tree that no
  longer exist (deleting their code was the point), recorded when the
  ladder was built: every digest of benchmark/golden.json matched on all
  four simulated workloads, and des.events was unchanged. The queue rung
  is also DES.md's ` + "`binary-value + now-lane`" + ` row, valid there on three
  recorded op streams and four seeded schedules against the frozen
  container/heap baseline.

%s
Shipped: the last row. The rungs up to the continuations one were built
as one change. No rung was a no-win, but none stands alone either: DES.md
had measured the typed event and each closure by itself as below what ten
pairs can resolve, and the first rotation above shows why — the steps are
2-7 %% each against a 5 %% run-to-run spread. They are one change because
their sum is not small: three tenths of sync-exchange's host time (README,
ten alternating pairs on two seeds: 2.61 -> 1.80 s and 2.68 -> 1.81 s) and
three fifths of its allocation. The recycling rung on top of them took
sync-exchange's host_s from 2.39 to 1.90 s (median of ten alternating
pairs against its parent, --seconds 5, faster in all ten; the host_s
column's runs were three more pairs at --seconds 9 against 2.19, 2.31 and
2.11 s) and its allocation from 596 to 331 MB; those parent figures are
the continuations rung as it measured then, not as recorded above.

Where the allocations went. At the baseline a message on mono-threaded mpi
cost 20: the snapshot, the wire, the Message, netsim's finish and schedule
closures, envcore's delivery closure and opts slice, marcel's two requests
with their completion closures, and the continuations of the exchange
loop. The continuations rung kept two — the wire and the Message — and a
thread created per message (pm2, omniorb) added its Proc and six
continuations. The shipped path keeps none. The Message goes back on the
network's free list when its deliver callback returns, the wire on the
environment's when the data sink has returned, the message is dropped or
a control wire is handled, and a handler thread parks in its endpoint's
pool when its message is delivered; the next message wakes it with the
event its spawn would have scheduled, at the same instant and in the same
place of the queue, and it pays the spawn cost again. Every free list is
an intrusive pointer push and pop, which aiaclint's hotalloc accepts on
the hot path.

What was not done. The rungs that *remove* events — delivery resolved in
one event, receive charges folded into arithmetic, the allreduce as one
event per round — change the tie-break order of simultaneous events, and
with it every recorded virtual result; ROADMAP keeps them for after the
virtual-time oracle moves out of benchmark/ (its item 1).
`

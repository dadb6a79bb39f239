package bench

// SPIN.md: the ladder of lazy spin. An asynchronous rank that reuses its
// last result behind a slow link used to cost the simulator two events per
// iteration; the shipped engine folds such iterations into runs that cost a
// few events each. Every rung must leave virtual time exactly as it was —
// the rungs below the last are scratch states of the tree (measured when
// the ladder was built, their code deleted or never shipped), and the last
// row, the shipped engine, is validated anew on every run.

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"aiac/internal/aiac"
	"aiac/internal/golden"
	"aiac/internal/obs/critpath"
	"aiac/internal/trace"
)

// spinRung is one row of SPIN.md.
type spinRung struct {
	name, note string
	valid      bool
	ties       string // TestSpinBoundaryTies cases that reproduce the per-iteration engine
	events     uint64 // des.events on the adsl-spin reference cell
	iters      int    // iterations of that cell
	adslHost   string // adsl-spin host_s, every run made
	gridHost   string // grid-dynamics host_s, every run made
}

// recordedSpinRungs are the rows below the shipped one, measured on the
// reference box (2 cores, go1.24.0) when the ladder was built: events by
// this file's reference-cell run dropped into a copy of the tree with the
// rung applied; ties by the copy's own TestSpinBoundaryTies against the
// rows recorded from the first rung; host_s by the repo benchmark
// (--seconds 5, seed 20040426), all five rungs rotated. valid as for the
// shipped row, checked in the copy: every digest of benchmark/golden.json
// ("failed":0 on the four simulated workloads), TestEngineGolden, the
// three MSGPATH.md fingerprints, TestTraceTable.
var recordedSpinRungs = []spinRung{
	{name: "per-iteration", valid: true, ties: "32/32", events: 2966472, iters: 1442676,
		adslHost: "0.606 0.559 0.485 0.573 0.524", gridHost: "1.037 1.064 0.982",
		note: "the parent: every iteration charges the CPU (a completion event) and resumes the rank (a wake-up event); the freshness gate walks a map"},
	{name: "dense freshness table", valid: true, ties: "32/32", events: 2966472, iters: 1442676,
		adslHost: "0.488 0.436 0.495 0.478 0.543", gridHost: "1.026 1.119 0.948",
		note: "heard / lastArrival become per-rank slices indexed from SendPlan.FirstKey, with a heard count; allChannelsFreshSince is a slice loop"},
	{name: "spin, completion enqueued when woken", valid: false, ties: "17/32", events: 220440, iters: 1442676,
		adslHost: "0.152 0.141 0.135 0.143 0.152", gridHost: "0.890 0.774 0.734",
		note: "not shipped: the resumed iteration's completion takes a fresh sequence number and boundaries are never entered, so same-instant events land on the wrong side of it — TestEngineGolden: 10 of 244 rows move (async madmpi and omniorb cells); the MSGPATH fingerprints happen to hold"},
	{name: "spin without the trace-run condition", valid: false, ties: "0/32", events: 216026, iters: 1442676,
		adslHost: "0.136 0.131 0.135 0.131 0.166", gridHost: "0.793 0.720 0.692",
		note: "not shipped: a spin may start where the previous iteration's trace run does not go on, so its first span is appended when the spin ends, not when it ran — results unmoved, but both async MSGPATH fingerprints and TestEngineGolden's traced rows do"},
	{name: "lazy spin", valid: true, ties: "64/64", events: 220448, iters: 1442676,
		adslHost: "0.151 0.133 0.138 0.139 0.144", gridHost: "0.796 0.693 0.729",
		note: "a quiet asynchronous rank starts a des.Spin instead of charging its CPU, if the CPU is idle, and is woken — its iterations folded in at once, the one in progress resumed as the charge it would have been — by a data arrival, a freed send channel, the stop, a crash, a load change or another charge on its CPU, an exact boundary or its own deadline; over a receive charge its CPU dispatches at each iteration's end and its next charge preempts unrun, it still steps every iteration (three events), which makes it the oracle of the 32 starved tie cases"},
}

// spinShippedRecorded is what of the shipped row a test cannot measure:
// the benchmark's runs, made in alternating pairs with the row above.
var spinShippedRecorded = spinRung{adslHost: "0.200 0.179 0.181 0.193 0.184", gridHost: "1.998 2.046 2.043"}

const spinShippedName = "spin over a starved charge"

// expandedTrace returns tr with every run split into its iterations — the
// trace a per-iteration collector would hold.
func expandedTrace(tr *trace.Collector) *trace.Collector {
	out := &trace.Collector{Msgs: tr.Msgs, Waits: tr.Waits}
	for _, s := range tr.Spans {
		for k := 0; k < s.Iters(); k++ {
			out.Spans = append(out.Spans, s.At(k))
		}
	}
	return out
}

// spinTests are the checks of a row's validity that live in other tests,
// run from the repository root by the generator: the boundary-tie cases
// first, which also fill the ties column.
var spinTests = [][2]string{
	{"TestSpinBoundaryTies", "./internal/aiac"},
	{"TestEngineGolden", "./internal/env/envcore"},
	{"TestTraceTable", "./internal/obs/critpath"},
	{"TestMsgPathTable", "./internal/bench"},
}

// movedRows reads the count of moved rows off golden.Check's summary.
var movedRows = regexp.MustCompile(`(\d+) of \d+ rows moved`)

// spinWorkloads are the simulated workloads of the repo benchmark; each
// must end "failed":0, i.e. reproduce every digest of benchmark/golden.json.
var spinWorkloads = []string{"adsl-spin", "sync-exchange", "kernel-large", "grid-dynamics"}

// TestSpinTable is the gate and the generator of SPIN.md. The gate always
// runs (on the three reference cells at full size, which TestMsgPathTable
// holds to their recorded fingerprints and event counts): the shipped
// engine's run-length trace attributes exactly as the same trace split into
// single iterations. The generator adds the checks that live elsewhere —
// TestEngineGolden, TestSpinBoundaryTies, TestTraceTable, TestMsgPathTable
// and the repo benchmark's golden digests on the four simulated workloads
// (about half a minute) — and writes the table:
//
//	SPIN_WRITE=SPIN.md go test -run TestSpinTable ./internal/bench
//
// SPIN_WRITE is a path relative to the repository root (or absolute).
func TestSpinTable(t *testing.T) {
	write := os.Getenv("SPIN_WRITE")
	shipped := spinShippedRecorded
	shipped.name, shipped.valid = spinShippedName, true
	shipped.note = "lazy spin also where the CPU holds one charge, dispatched at this instant, that the rank's charge would preempt before it ran (CPU.RunsAlone): the spin's first step makes that preemption (CPU.Hold) and Resume takes the iteration in progress back over the held charge"
	runs, err := refRuns()
	if err != nil {
		t.Fatal(err)
	}
	for i, run := range runs {
		c := refCells[i]
		perIter, ok := critpath.Analyze(expandedTrace(run.tr), run.attr.Total)
		if !ok || !reflect.DeepEqual(run.attr, perIter) {
			shipped.valid = false
			t.Errorf("%s: the run-length trace attributes differently from its iterations", refCellName(c))
		}
		if c.Mode == aiac.Async && c.Grid == "adsl" {
			shipped.events, shipped.iters = run.events, run.iters
		}
	}
	if write == "" {
		return
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	ties, err := golden.Read(filepath.Join(root, "internal/aiac/testdata/spin_ties.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	cases := len(ties)
	shipped.ties = fmt.Sprintf("%d/%d", cases, cases)
	for i, tc := range spinTests {
		if out, err := runIn(root, "go", "test", "-count=1", "-run", tc[0], tc[1]); err != nil {
			shipped.valid = false
			if m := movedRows.FindStringSubmatch(out); i == 0 && m != nil {
				moved, _ := strconv.Atoi(m[1])
				shipped.ties = fmt.Sprintf("%d/%d", cases-moved, cases)
			}
			t.Errorf("%s: %v\n%s", tc[0], err, out)
		}
	}
	for _, w := range spinWorkloads {
		out, err := runIn(root, "go", "run", "./benchmark", "--workload", w, "--seed", "20040426", "--seconds", "3", "--trace", "0")
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if err != nil || !strings.Contains(lines[len(lines)-1], `"failed":0`) {
			shipped.valid = false
			t.Errorf("benchmark %s: %v\n%s", w, err, lines[len(lines)-1])
		}
	}
	rows := append(append([]spinRung(nil), recordedSpinRungs...), shipped)
	table := spinMarkdown(rows)
	t.Logf("spin table:\n%s", table)
	if !filepath.IsAbs(write) {
		write = filepath.Join(root, write)
	}
	if err := os.WriteFile(write, []byte(fmt.Sprintf(spinDoc, table)), 0o644); err != nil {
		t.Fatalf("writing %s: %v", write, err)
	}
	t.Logf("wrote %s", write)
}

// runIn runs a command in dir, with TestTraceTable's gate switched on, and
// returns its combined output.
func runIn(dir string, args ...string) (string, error) {
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "TRACE_GATE=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func spinMarkdown(rows []spinRung) string {
	var sb strings.Builder
	sb.WriteString("| valid | rung | ties | des.events | events/iter | adsl-spin host_s | grid-dynamics host_s | note |\n")
	sb.WriteString("|---|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		valid := 0
		if r.valid {
			valid = 1
		}
		perIter := "—"
		if r.iters > 0 {
			perIter = fmt.Sprintf("%.3f", float64(r.events)/float64(r.iters))
		}
		fmt.Fprintf(&sb, "| %d | %s | %s | %d | %s | %s | %s | %s |\n",
			valid, r.name, r.ties, r.events, perIter, r.adslHost, r.gridHost, r.note)
	}
	return sb.String()
}

const spinDoc = `# Lazy spin — measured

Generated, and the shipped row checked, by:

    SPIN_WRITE=SPIN.md go test -run TestSpinTable ./internal/bench

(about half a minute: it runs TestSpinBoundaryTies, TestEngineGolden,
TestTraceTable, TestMsgPathTable and the repo benchmark's four simulated
workloads besides its own checks; without SPIN_WRITE the test is the
in-process half of the gate and takes a second).

An asynchronous rank behind ADSL spends nearly all of its iterations
reusing its last result: ` + "`adsl-spin`" + `'s reference cell
(` + "`pm2/async/adsl/p4/n12000`" + `, seed 20040426) runs 1 442 676 iterations,
and the engine used to step every one through the event queue — a CPU
completion and a wake-up, two events an iteration. The valid rungs below
are cumulative; each invalid one is a valid tree with one of its pieces
taken out. None may move virtual time.

Columns. "ties" counts the cases of TestSpinBoundaryTies whose digest
equals the recorded row: every way a spinning rank can be reached, and its
two deadlines, each inside an iteration and exactly on a boundary
scheduled before, as, and after that iteration began — 32 cases recorded
from the per-iteration engine, the first rung, and the same 32 with every
CPU starved by a foreign charge, recorded from lazy spin, which steps
those iterations one by one. The rows above lazy spin were counted over
the first 32. "des.events" and "events/iter" are the reference cell's.
"adsl-spin host_s" and "grid-dynamics host_s" list runs of the repo
benchmark (--seconds 5 --trace 0, seed 20040426, 2 cores, go1.24.0): for
the first five rungs every run made, the five rotated so that each
rotation ran every rung once, on the workloads as they stood then; for
the last row the first runs of the alternating pairs below, on today's
workloads (adsl-spin now also runs omniorb's async cell), so compare it
with the pairs' parent column, not with the rows above.

"valid" = 1 means all of: every digest of benchmark/golden.json matched
("failed":0 on adsl-spin, sync-exchange, kernel-large and grid-dynamics);
TestEngineGolden's rows matched; MSGPATH.md's three reference cells
reproduced their fingerprints (report, iterate, traffic, every span,
message and wait, critical-path attribution); and on those cells
critpath.Attribution of the run-length trace is reflect.DeepEqual to the
one of the same trace split into iterations (TRACE.md's criterion). For
the last row the generator checks all of it each time it runs; the rows
above are scratch copies of the tree, checked when the ladder was built.

%s
Shipped: the last row. How a spin stays exact:

- **Quiet.** A rank spins only from an iteration that would be followed by
  identical ones: not dirty, its last residual reused, its charge running
  alone and uncut on its CPU (marcel.CPU.RunsAlone: the CPU idle, or its
  one charge dispatched at this instant, which the rank's charge would
  preempt before it ran — under Fair only if the rank's charge fits in a
  quantum), every send channel still busy, its protocol machine Quiet
  (protocol.Rank.Quiet: awaiting a channel never heard, awaiting
  confirmation, or confirmed — then with a heartbeat deadline), and the
  iteration continuing the previous one's trace run.
- **Hold.** Over such a charge — typically a receive charge: the rank's
  completion dispatches it, the rank's next charge preempts it unrun, and
  so on every iteration — the spin's first step makes that preemption as
  bookkeeping (marcel.CPU.Hold): the charge goes back to the queue
  unrun, its slice's completion stale, busy time unchanged. It stays
  there, as it would have, until the spin ends; Resume accepts it.
- **des.Spin.** The rank parks on the lattice of its iteration boundaries
  instead of charging its CPU. When the clock enters a new instant the
  simulator counts the boundaries it passed and records, for the latest,
  the sequence number the per-iteration engine's completion event would
  have had (ordinary events are numbered 2^20 apart; a mark takes a number
  between). An instant that is exactly a boundary is handed to the rank
  before any of its events run, and so is the rank's deadline — the
  iteration cap or the next heartbeat — even when nothing else happens
  there.
- **Wake.** A data arrival, a freed send channel (envcore's keyed
  in-flight release sites), the stop gate opening (Gate.OnOpen), a crash
  (Dynamics.WatchEpoch), a background-load change or another charge on
  its CPU (CPU.Watch), a boundary, the deadline: each calls the rank's
  wake first. Wake folds the ended iterations in — iteration counters,
  one trace run (Collector.AddRun), the residual samples the stride keeps
  (Residuals.RecordRun), the protocol streak (Rank.Spin) — and resumes
  the iteration in progress as the CPU charge it would have been since it
  began (CPU.Resume), over the held charge if there is one, its
  completion scheduled at the mark (Spin.ScheduleEnd). From there
  everything is the per-iteration loop.

The two invalid rungs are why lazy spin needs both halves: without the
marks and boundary entry, an event that lands exactly where a
per-iteration completion or wake-up would have been is ordered
differently (15 of the 32 tie cases, 10 engine-golden rows); without the
trace-run condition a spin's first span is appended late.

End to end, lazy spin against its parent: ten alternating pairs per
workload, repo benchmark --seconds 5 --trace 0, seed 20040426, 2 cores,
go1.24.0, median [q1, q3], "failed":0 in all 100 runs.

| workload | metric | parent | lazy spin | ratio | lazy spin better |
|---|---|---|---|---|---|
| adsl-spin | host_s | 0.688 [0.617, 0.756] | 0.185 [0.157, 0.188] | 0.268 | 10 / 10 |
| adsl-spin | iters_per_s | 4.22 M | 15.6 M | 3.71 | 10 / 10 |
| adsl-spin | peak_rss_mb | 16.1 [16.0, 16.4] | 16.6 [16.3, 17.2] | 1.027 | 4 / 10 |
| grid-dynamics | host_s | 1.367 [1.285, 1.417] | 0.962 [0.858, 0.985] | 0.704 | 10 / 10 |
| grid-dynamics | peak_rss_mb | 25.8 [25.4, 26.1] | 26.4 [26.0, 27.0] | 1.025 | 1 / 10 |
| sync-exchange | host_s | 1.466 [1.243, 1.795] | 1.483 [1.402, 1.667] | 1.012 | 6 / 10 |
| sync-exchange | setup_s | 5.06 ms [4.02, 5.69] | 5.01 ms [4.08, 5.69] | 0.989 | 4 / 10 |
| kernel-large | host_s | 1.931 [1.892, 2.139] | 2.013 [1.819, 2.134] | 1.042 | 6 / 10 |
| native-loopback | host_s | 3.474 [3.109, 3.511] | 3.197 [3.077, 3.636] | 0.920 | 4 / 10 |

The adsl-spin gap (0.50 s) is 3.6 times the parent's quartile spread. The
controls moved inside their own spread, and the sync path's event count
did not move at all (408 569 on sync-exchange's reference cell). Both
peak_rss_mb increases are smaller than the parent's own quartile spread,
with the same bytes allocated (runtime.alloc_mb 165.8 MB on either side of
grid-dynamics' traced run) and fewer collections (41 → 39): the same
garbage, produced in less time.

Spin over a starved charge against lazy spin, its parent: repo benchmark
--seconds 5 --trace 0, seed 20040426, 2 cores, go1.24.0, median [q1, q3],
alternating pairs — ten on adsl-spin, five on grid-dynamics and
native-loopback, ten on sync-exchange and kernel-large (five with the
parent run first, five with it second), "failed":0 in all 80 runs.

| workload | metric | lazy spin | starved charge | ratio | better |
|---|---|---|---|---|---|
| adsl-spin | host_s | 0.379 [0.351, 0.390] | 0.200 [0.183, 0.205] | 0.528 | 10 / 10 |
| adsl-spin | iters_per_s | 7.61 M | 14.4 M | 1.894 | 10 / 10 |
| adsl-spin | peak_rss_mb | 16.3 [16.2, 16.6] | 16.6 [16.2, 17.0] | 1.018 | 3 / 10 |
| grid-dynamics | host_s | 2.150 [2.092, 2.176] | 2.014 [1.957, 2.045] | 0.937 | 5 / 5 |
| grid-dynamics | peak_rss_mb | 25.4 [25.1, 26.2] | 26.0 [24.9, 26.2] | 1.022 | 3 / 5 |
| sync-exchange | host_s | 2.403 [2.319, 2.494] | 2.435 [2.367, 2.521] | 1.013 | 3 / 10 |
| kernel-large | host_s | 3.802 [3.502, 4.196] | 3.883 [3.680, 4.022] | 1.021 | 6 / 10 |
| native-loopback | host_s | 1.109 [1.089, 1.125] | 1.104 [1.098, 1.139] | 0.995 | 2 / 5 |

The adsl-spin gap (0.18 s) is 4.7 times lazy spin's quartile spread. On
its two async cells (scratch counters in drive's spin), lazy spin stepped
59 313 (pm2) and 304 215 (omniorb) reused iterations one by one, 95 %% and
99 %% of them because the rank's CPU held a receive charge; now 2 950 and
3 043, and omniorb's cell runs 52 672 events instead of 953 607. The controls never reach a spin over a held charge (sync ranks never
spin; native runs no simulator) and moved inside their own spread:
kernel-large's pairs favour whichever binary ran second.
`

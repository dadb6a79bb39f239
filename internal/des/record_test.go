package des_test

// The recorded half of DES.md's validity column: op streams taken off real
// simulated cells — an asynchronous cell behind ADSL (few ranks, a shallow
// queue, millions of wake-ups at "now") and synchronous cells on the local
// and three-site grids (many ranks, a deep queue of in-flight deliveries) —
// replayed through every measured rung of the ladder against the frozen
// baseline.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"aiac/internal/aiac"
	"aiac/internal/des"
	"aiac/internal/matrix"
	"aiac/internal/problems"
)

type recordedCell struct {
	env   string
	mode  aiac.Mode
	grid  string
	procs int
	n     int
	eps   float64 // looser than the sweeps' 1e-5: the op mix repeats long before then
}

func (c recordedCell) name() string {
	return fmt.Sprintf("%s/%s/%s/p%d/n%d", c.env, c.mode, c.grid, c.procs, c.n)
}

var recordedCells = []recordedCell{
	// A spinning rank costs a few events a run, so the async cell runs to
	// a tighter ε than the others to record more than 10 000 pushes.
	{"pm2", aiac.Async, "adsl", 4, 1200, 0.03},
	{"omniorb", aiac.Sync, "local", 16, 3200, 1e-4},
	{"mpi", aiac.Sync, "3site", 24, 4800, 1e-4},
}

// recordCell runs one repetition of the cell on the simulator, wired as
// matrix.runOnce wires it, and returns the simulator's queue workload.
func recordCell(c recordedCell) (des.OpStream, error) {
	lp := matrix.DefaultSpec().Linear
	prob := problems.NewLinear(c.n, lp.Diags, lp.Rho, lp.Seed)
	sim := des.New()
	stop := des.RecordOps(sim, c.name())
	grid, err := matrix.NewGrid(sim, c.grid, c.procs)
	if err != nil {
		return des.OpStream{}, err
	}
	grid.Net.SetJitter(0.02, lp.Seed)
	env, err := matrix.NewEnv(grid, c.env, true, nil)
	if err != nil {
		return des.OpStream{}, err
	}
	rpt := aiac.Run(grid, env, prob, aiac.Config{Mode: c.mode, Eps: c.eps, MaxIters: lp.MaxIters})
	if rpt.Reason != aiac.StopConverged {
		return des.OpStream{}, fmt.Errorf("%s did not converge: %v", c.name(), rpt.Reason)
	}
	return stop(), nil
}

var recorded struct {
	once    sync.Once
	streams []des.OpStream
	err     error
}

func recordedStreams(t *testing.T) []des.OpStream {
	recorded.once.Do(func() {
		for _, c := range recordedCells {
			s, err := recordCell(c)
			if err != nil {
				recorded.err = err
				return
			}
			recorded.streams = append(recorded.streams, s)
		}
	})
	if recorded.err != nil {
		t.Fatal(recorded.err)
	}
	return recorded.streams
}

// TestRecordedStreamReplay: on the op streams of real cells every measured
// rung — the shipped queue among them — pops exactly the frozen baseline's
// (at, seq) order.
func TestRecordedStreamReplay(t *testing.T) {
	streams := recordedStreams(t)
	for _, s := range streams {
		pushes, pops, ties := s.Counts()
		t.Logf("%s: %d pushes, %d pops, %d same-timestamp neighbours", s.Name(), pushes, pops, ties)
		if pushes < 10000 || pops < 10000 || ties == 0 {
			t.Errorf("%s is too thin to mean anything", s.Name())
		}
	}
	for name, why := range des.LadderValidity(streams) {
		t.Errorf("%s: %s", name, why)
	}
}

// TestQueueTable is the measured table generator and CI gate, skipped
// unless asked for (recording three cells and timing three rungs at three
// depths takes ~15 s):
//
//	DES_GATE=1 go test -run TestQueueTable -v ./internal/des
//	DES_WRITE=DES.md go test -run TestQueueTable ./internal/des
//
// DES_WRITE is a path relative to the repository root (or absolute). Gates:
// every measured rung valid on the recorded and the random streams, and the
// shipped queue allocation-free and at least 1.3x the frozen baseline at
// depth 1024. The recorded rows are printed as they are.
func TestQueueTable(t *testing.T) {
	write := os.Getenv("DES_WRITE")
	if os.Getenv("DES_GATE") == "" && write == "" {
		t.Skip("set DES_GATE=1 or DES_WRITE=<path> to run the measured queue table")
	}
	recordedSet := recordedStreams(t)
	rows := des.MeasureLadder(recordedSet)
	t.Logf("queue table:\n%s", des.LadderMarkdown(rows, recordedSet))
	for _, r := range rows {
		if !r.Valid {
			t.Errorf("variant %s invalid: %s", r.Name, r.Why)
		}
	}
	shipped := des.FindRow(rows, des.ShippedVariant)
	if shipped == nil {
		t.Fatalf("%s missing from table", des.ShippedVariant)
	}
	if shipped.Allocs != 0 {
		t.Errorf("shipped queue allocates %.2f per pop+push; want 0", shipped.Allocs)
	}
	if shipped.Speedup < 1.3 {
		t.Errorf("shipped queue speedup %.3f < 1.3 over the frozen baseline at depth 1024", shipped.Speedup)
	}
	if write == "" {
		return
	}
	var cells string
	for _, s := range recordedSet {
		pushes, _, _ := s.Counts()
		cells += fmt.Sprintf("  - `%s` (%d events)\n", s.Name(), pushes)
	}
	doc := fmt.Sprintf(desDoc, cells, des.LadderMarkdown(rows, recordedSet), des.ShippedVariant)
	if !filepath.IsAbs(write) {
		write = "../../" + write
	}
	if err := os.WriteFile(write, []byte(doc), 0o644); err != nil {
		t.Fatalf("writing %s: %v", write, err)
	}
	t.Logf("wrote %s", write)
}

const desDoc = `# DES event queue — measured

Generated by:

    DES_WRITE=DES.md go test -run TestQueueTable ./internal/des

Each row is one event-queue design, driven through the same three-method
interface. "ns/op @d" is one pop plus one push with the queue held at d
pending events (the hold model; a quarter of the pushes tie with the
timestamp just popped, the rest land uniformly within two mean separations)
— the benchmark ledger's des.queue_depth is 31 on adsl-spin and 669 on
sync-exchange. allocs/op and speedup are at depth 1024; speedup is against
the frozen baseline, the container/heap queue internal/des shipped before.
"replay <cell>" is ns per pop (with its push) when that cell's recorded
workload is driven through the queue alone, fastest of three passes: the
cell's own mix of depths, ties and timer distances instead of a model's.

The first three rows are measured every time this command runs: the
baseline, the shipped queue and its heap lane alone. The four below them
are recorded: the rungs that lost, as this table last measured them before
their code was deleted (git history keeps it), their speedup against the
baseline of that run: compare them with the measured rows by speedup, not
by time, since the two runs need not share a machine or its load.
TestRecordedRowsCommitted holds them to the Go-side table that prints them.

"valid" = 1 means that when the row was measured the variant popped the
identical (at, seq) sequence as the frozen baseline on

- the queue workloads recorded off real sim-fast cells, every enqueue and
  every pop in its place:
%s- four seeded random schedules of 30 000 ops with heavy same-timestamp ties,
  far-future timers and bursts scheduled from inside running events, the
  depth wandering between empty and fifteen hundred.

%s
Shipped: %s, as des.lanes (internal/des/queue.go) — des.pushEvent /
des.popEvent for events due later, a FIFO ring for events pushed at the
current instant — the only queue compiled into the package; the baseline
and the heap lane alone live in internal/des/ladder_test.go.

Why the now-lane. A counter on the recorded cells shows that about half of
a real cell's events are scheduled at the very instant they are due
(49.5 %% of sync-exchange's, 47 %% of adsl-spin's and grid-dynamics'): the
CPU-completion -> Unpark, Chan.Send -> waiter, SpawnTask and Gate.Open
trampolines. On a heap each pays a sift up to the root region and a sift
down from it; in the ring each is one store and one load. The order is
exact, not approximate: a heap event at the current time was pushed while
the clock was earlier, hence before — with a smaller seq than — every ring
entry, and the ring is FIFO in seq, so "heap while its top is at now, then
the ring, then advance" pops what one priority queue would (the row is
valid on every stream above, and FuzzQueueOrder holds the Simulator to the
frozen scheduler with a quarter or more of its pushes zero-delay). The
hold model understates the lane — only a quarter of its pushes tie with the
clock — and the replays show it: their events are "now" or a network
latency away. MSGPATH.md has the end-to-end number.

How the winner was chosen. Every typed rung is valid and allocation-free
and roughly twice the baseline. Among them the hold model separates little;
on the recorded streams freelist-ptr and binary-bottomup are usually 10-25 %%
ahead of binary-value — 5 to 13 ns an event, against the 370 ns of host
time a sync-exchange event costs in all (simfast.run_s over des.events).
So the end-to-end number decided: binary-value, quad-value, freelist-ptr
and binary-bottomup were each built into the Simulator and run as
alternating pairs of the repo benchmark's sync-exchange workload (four
rounds, when the ladder was built). Median host_s: 2.29, 2.32, 2.28 and (a
separate four rounds) 2.34 against 2.36 — all inside the 3 %% spread of one
binary against itself, and all 22 %% under the container/heap parent's 2.96.
A tie goes to the least code: the plain binary heap needs no free list to
own, no node tournament and no second sift. The no-wins, honestly:

- quad-value halves the levels but pays up to three more comparisons on
  each; at depths of tens to hundreds the binary heap's working set is
  already in L1, so there is no miss for the shallower tree to save.
- freelist-ptr moves 8 bytes where the value heap moves 40, but chases a
  pointer per comparison and has a free list to keep; often the fastest
  replay, not by enough to show end to end.
- binary-bottomup saves comparisons when the re-inserted element belongs
  near the bottom (it usually does) and pays a second loop; same verdict.
- calendar wins the hold model — uniform increments and a day width that
  fits are its best case — and gives that back on the recorded streams,
  whose events are either "now" or a network latency away, so that no one
  width fits; it is also five times the code and carries a tuning rule.

Measured when this ladder was first built, and corrected since: a typed
event for Schedule/After callers too (an interface-valued event with
marcel's request as its own handler, marcel.compute_allocs 2 -> 1) showed
no resolvable host_s change in three alternating pairs each on adsl-spin
and sync-exchange, and netsim's delivery and envcore's transmit closures
were each under 1 %% of the sync-exchange profile, below what ten pairs can
resolve. True of each taken alone, not of their sum: the event is now a
Handler and a word of argument, marcel's request, netsim's Message and
envcore's delivery method are their own event targets, and together with
the now-lane and recycled requests and buffers they are the ladder of
MSGPATH.md (sync-exchange host_s down by three tenths, allocation by three
fifths).

Virtual time is untouched by the choice: sequence numbers make the order
total, so every valid queue executes the same events in the same order.
`

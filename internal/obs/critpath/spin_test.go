package critpath_test

// SPIN.md: the ladder of lazy spin. An asynchronous rank that reuses its
// last result behind a slow link used to cost the simulator two events per
// iteration; the shipped engine folds such iterations into runs that cost a
// few events each. Every rung must leave virtual time exactly as it was —
// the rungs below the last are recorded rows of the doc alone, and the last
// row, the shipped engine, is validated anew on every run.

import (
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"aiac/internal/aiac"
	"aiac/internal/des"
	"aiac/internal/golden"
	"aiac/internal/ladder"
	"aiac/internal/matrix"
	"aiac/internal/obs/critpath"
	"aiac/internal/problems"
)

const spinShipped = "spin over a starved charge"

var spinSpec = ladder.Spec{Doc: "SPIN.md", Tables: []ladder.Table{{
	Anchor: "| valid | rung |", Key: []string{"rung"},
	Rows: []string{spinShipped}, Cols: []string{"valid", "ties", "des.events", "events/iter"},
}}}

// spinChecks are the checks of the shipped row's validity that live in
// other test binaries, run from the repository root two at a time (none is
// timed): the boundary-tie cases first, whose summary also fills the ties
// column, the engine's recorded rows, TRACE.md's gate, and the repo
// benchmark's simulated workloads, each of which must end "failed":0, i.e.
// reproduce every digest of benchmark/golden.json.
var spinChecks = [][]string{
	{"go", "test", "-count=1", "-run", "TestSpinBoundaryTies", "./internal/aiac"},
	{"go", "test", "-count=1", "-run", "TestEngineGolden", "./internal/env/envcore"},
	{"go", "test", "-count=1", "-run", "TestLadderTrace", "./internal/obs/critpath"},
	benchmarkRun("adsl-spin"), benchmarkRun("sync-exchange"), benchmarkRun("kernel-large"), benchmarkRun("grid-dynamics"),
}

func benchmarkRun(workload string) []string {
	return []string{"go", "run", "./benchmark", "--workload", workload, "--seed", "20040426", "--seconds", "3", "--trace", "0"}
}

// movedRows reads the count of moved rows off golden.Check's summary.
var movedRows = regexp.MustCompile(`(\d+) of \d+ rows moved`)

// TestLadderSpin always checks, on the three reference cells at full size
// (which TestLadderMsgPath holds to their recorded fingerprints and event
// counts), that the shipped engine's run-length trace attributes exactly as
// the same trace split into single iterations. Measured, it adds
// TestLadderMsgPath's check of those cells and spinChecks (about half a
// minute), and gates the shipped row and lazy spin's recorded row valid.
func TestLadderSpin(t *testing.T) {
	doc := ladder.Open(t, spinSpec)
	runs, err := refRuns()
	if err != nil {
		t.Fatal(err)
	}
	var events uint64
	var iters int
	for i, run := range runs {
		c := refCells[i]
		perIter, ok := critpath.Analyze(expanded(run.tr), run.attr.Total)
		if !ok || !reflect.DeepEqual(run.attr, perIter) {
			t.Errorf("%s: the run-length trace attributes differently from its iterations", cellName(c))
		}
		if c.Mode == aiac.Async && c.Grid == "adsl" {
			events, iters = run.events, run.iters
		}
	}
	if !ladder.Gate(t) {
		return
	}
	checkMsgPathCells(t, runs)
	ties, err := golden.Read(filepath.Join(ladder.Root(), "internal/aiac/testdata/spin_ties.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	cases, tied := len(ties), len(ties)
	outs, errs := make([]string, len(spinChecks)), make([]error, len(spinChecks))
	var wg sync.WaitGroup
	slots := make(chan struct{}, 2)
	for i, args := range spinChecks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slots <- struct{}{}
			outs[i], errs[i] = ladder.Run(true, args...)
			<-slots
		}()
	}
	wg.Wait()
	for i, args := range spinChecks {
		out, failed := outs[i], errs[i] != nil
		if args[1] == "run" {
			lines := strings.Split(strings.TrimSpace(out), "\n")
			out = lines[len(lines)-1]
			failed = failed || !strings.Contains(out, `"failed":0`)
		}
		if !failed {
			continue
		}
		if m := movedRows.FindStringSubmatch(out); i == 0 && m != nil {
			moved, _ := strconv.Atoi(m[1])
			tied = cases - moved
		}
		t.Errorf("%s: %v\n%s", strings.Join(args, " "), errs[i], out)
	}
	tab := doc.Table("| valid | rung |")
	tab.Setf(spinShipped, "valid", "%d", ladder.Bit(!t.Failed()))
	tab.Setf(spinShipped, "ties", "%d/%d", tied, cases)
	tab.Setf(spinShipped, "des.events", "%d", events)
	tab.Setf(spinShipped, "events/iter", "%.3f", float64(events)/float64(iters))
	if v := tab.Get("lazy spin", "valid"); v != "1" {
		t.Errorf("lazy spin's recorded row reads valid %s; the shipped row builds on it", v)
	}
	doc.Finish()
}

// TestSpinEvents pins what lazy spin (SPIN.md) is for: an asynchronous rank
// behind ADSL spins through millions of reused iterations, and the
// simulator must not pay an event for each of them — stepping every
// iteration costs about two, three over a receive charge it starves. The
// adsl-spin reference cell at a quarter of its size (…/async/adsl/p4/n3000:
// 1.36 M iterations) must run at most 0.06 events per iteration on pm2 and
// on omniorb — 0.040 and 0.037 when this was written; 0.120 and 0.080 when
// a rank spun only on an idle CPU, and not over a charge it preempts unrun
// (CPU.RunsAlone) — so a silent return to per-iteration stepping fails here
// and not only in the benchmark.
func TestSpinEvents(t *testing.T) {
	const maxPerIter = 0.06
	for _, env := range []string{"pm2", "omniorb"} {
		sim := des.New()
		grid, err := matrix.NewGrid(sim, "adsl", 4)
		if err != nil {
			t.Fatal(err)
		}
		e, err := matrix.NewEnv(grid, env, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		prob := problems.NewLinear(3000, 12, 0.85, refSeed)
		rpt := aiac.Run(grid, e, prob, aiac.Config{Mode: aiac.Async, Eps: 1e-5, MaxIters: 3000000})
		perIter := float64(sim.Events()) / float64(rpt.TotalIters())
		t.Logf("%s: %d events over %d iterations: %.3f per iteration", env, sim.Events(), rpt.TotalIters(), perIter)
		if perIter > maxPerIter {
			t.Errorf("%s: %d events over %d iterations: %.3f per iteration, want at most %.2f", env, sim.Events(), rpt.TotalIters(), perIter, maxPerIter)
		}
	}
}

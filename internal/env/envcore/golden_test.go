package envcore_test

// The engine's oracle is recorded rows: every field of a cell's
// report.Result but the host time, the attempt count and the backend name,
// and for a traced cell the sha256 of every span, message and wait.
// testdata/capped_rows.jsonl holds the default matrix (21 cells × seeds 0,
// 1, 2, 7), four perturbed cells × the same seeds and two traced cells ×
// seeds 0, 7, each at n = 600 and n = 1500, and a down-scaled copy of each
// simulated benchmark workload, all capped; chem_rows.jsonl three chem
// cells × seeds 0, 5. Both were written as digests by the engine this one
// replaced, before it was deleted: it ran every simulated process on a
// goroutine of its own and never recycled a buffer; a tree that reproduced
// every digest converted them to fields. workload_rows.jsonl holds the four
// workloads at full size (golden.Workloads): each cell's row as the
// benchmark reports it, and its reference cell's; that tree reproduced
// every benchmark/golden.json digest with them. The chem and full-size
// cells run to convergence, which a fault (a released buffer read as NaNs)
// can keep them from for many minutes, so they run once the capped rows
// hold. The rows live here because only this binary poisons what the
// environment releases (TestMain; PoisonReleased is test-only), so a cell
// that read a released value cannot reproduce its row.
//
// Re-record, on purpose only, with
//
//	GOLDEN_WRITE=1 go test -run TestEngineGolden ./internal/env/envcore
//
// and quote the summary of what moved that it prints.

import (
	"crypto/sha256"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"aiac/internal/aiac"
	"aiac/internal/env/envcore"
	"aiac/internal/golden"
	"aiac/internal/matrix"
	"aiac/internal/report"
	"aiac/internal/trace"
)

func TestMain(m *testing.M) {
	envcore.PoisonReleased(true)
	os.Exit(m.Run())
}

// goldenCase is one row.
type goldenCase struct {
	section string
	cell    matrix.Cell
	spec    matrix.Spec
	seed    int64
	reps    int  // the row matrix.Run reports over reps repetitions; 0: repetition 0 alone
	traced  bool // the row also hashes every span, message and wait
}

func (gc goldenCase) key() string {
	return fmt.Sprintf("%s %s seed=%d", gc.section, gc.cell.Key(), gc.seed)
}

// row runs the case.
func (gc goldenCase) row() (golden.Row, error) {
	var r report.Result
	var tr *trace.Collector
	if gc.traced {
		tr = trace.New()
	}
	if gc.reps > 0 {
		s, c := gc.spec, gc.cell // narrowed to the cell, whose repetitions matrix.Run aggregates
		s.Envs, s.Modes, s.Grids, s.Problems = []string{c.Env}, []aiac.Mode{c.Mode}, []string{c.Grid}, []string{c.Problem}
		s.Procs, s.Sizes, s.Scenarios = []int{c.Procs}, []int{c.Size}, []string{c.Scenario}
		set, err := matrix.Run(s, matrix.Options{Workers: 1, Reps: gc.reps, Seed: gc.seed})
		if err != nil {
			return golden.Row{}, err
		}
		r = set.Results[0]
	} else {
		var err error
		if r, err = matrix.RunCellOnce(gc.cell, gc.spec, 0, gc.seed, 0, tr); err != nil {
			return golden.Row{}, err
		}
	}
	row := golden.Row{Key: gc.key(), Fields: golden.Struct(r, "host_sec", "attempts", "backend")}
	if gc.traced {
		if len(tr.Spans) == 0 || len(tr.Msgs) == 0 {
			return golden.Row{}, fmt.Errorf("trace empty: %d spans, %d msgs", len(tr.Spans), len(tr.Msgs))
		}
		h := sha256.New()
		fmt.Fprintln(h, tr.Spans)
		fmt.Fprintln(h, tr.Msgs)
		fmt.Fprintln(h, tr.Waits)
		row.Fields = append(row.Fields, golden.Field{Name: "trace_sha256", Value: fmt.Sprintf("%x", h.Sum(nil))})
	}
	return row, nil
}

// sizedCases are the sections recorded once per size: the default matrix,
// the perturbed cells and the traced cells, all at n unknowns.
func sizedCases(n int) []goldenCase {
	spec := matrix.DefaultSpec()
	spec.Sizes = []int{n}
	spec.Linear.MaxIters = 12000
	seeds := []int64{0, 1, 2, 7}
	cell := func(env string, mode aiac.Mode, grid, scen string) matrix.Cell {
		return matrix.Cell{Env: env, Mode: mode, Grid: grid, Problem: "linear", Procs: 8, Size: n, Scenario: scen}
	}
	var out []goldenCase
	add := func(section string, c matrix.Cell, seeds []int64, traced bool) {
		for _, seed := range seeds {
			out = append(out, goldenCase{section: fmt.Sprintf("%s@%d", section, n), cell: c, spec: spec, seed: seed, traced: traced})
		}
	}
	for _, c := range spec.Cells() {
		c.Backend = ""
		add("default", c, seeds, false)
	}
	// Scenario events, crash/recovery epochs, restarts and reconvergence
	// accounting.
	add("scenario", cell("pm2", aiac.Async, "adsl", "flaky-adsl"), seeds, false)
	add("scenario", cell("omniorb", aiac.Async, "adsl", "flaky-adsl"), seeds, false)
	add("scenario", cell("madmpi", aiac.Async, "3site", "lossy-wan"), seeds, false)
	add("scenario", cell("mpi", aiac.Sync, "3site", "lossy-wan"), seeds, false)
	// Async under perturbations (compute spans, restarts, drops), and sync
	// (the idle spans of the exchanges).
	add("trace", cell("pm2", aiac.Async, "adsl", "flaky-adsl"), []int64{0, 7}, true)
	add("trace", cell("mpi", aiac.Sync, "3site", ""), []int64{0, 7}, true)
	return out
}

// scaledSize is each workload's size when down-scaled: an eighth of full
// size, or less.
var scaledSize = map[string]int{"adsl-spin": 1500, "sync-exchange": 2400, "kernel-large": 10000, "grid-dynamics": 1500}

// fixedCases are the workloads down-scaled and capped, then the workloads at
// full size with their reference cells (longest first) and the chem cells.
func fixedCases() (scaled, full, chem []goldenCase) {
	for _, w := range golden.Workloads {
		s := w.Spec
		s.Sizes, s.Linear.MaxIters = []int{scaledSize[w.Name]}, 6000
		for _, c := range s.Cells() {
			scaled = append(scaled, goldenCase{section: "workload/" + w.Name, cell: c, spec: s, seed: golden.Seed})
		}
		for _, c := range w.Spec.Cells() {
			full = append(full, goldenCase{section: "workload/" + w.Name, cell: c, spec: w.Spec, seed: golden.Seed, reps: w.Reps})
			if w.Ref(c) {
				full = append(full, goldenCase{section: "reference/" + w.Name, cell: c, spec: w.Spec, seed: golden.Seed, traced: true})
			}
		}
	}
	slices.SortStableFunc(full, func(a, b goldenCase) int { return b.reps - a.reps })
	for _, c := range []matrix.Cell{
		{Env: "mpi", Mode: aiac.Sync, Grid: "3site", Problem: "chem", Procs: 8, Size: 12},
		{Env: "pm2", Mode: aiac.Async, Grid: "3site", Problem: "chem", Procs: 8, Size: 12},
		{Env: "madmpi", Mode: aiac.Sync, Grid: "local", Problem: "chem", Procs: 8, Size: 12},
	} {
		for _, seed := range []int64{0, 5} {
			chem = append(chem, goldenCase{section: "chem", cell: c, spec: matrix.DefaultSpec(), seed: seed})
		}
	}
	return scaled, full, chem
}

// checkCases runs the cases on every core, then checks each row in a
// subtest named by its key and the file at path as a whole.
func checkCases(t *testing.T, path string, cases []goldenCase) {
	rows, errs := make([]golden.Row, len(cases)), make([]error, len(cases))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, gc := range cases {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			rows[i], errs[i] = gc.row()
		}()
	}
	wg.Wait()
	recorded, _ := golden.Read(path) // Check fails on a file it cannot read
	for i, gc := range cases {
		t.Run(strings.ReplaceAll(gc.key(), " ", "_"), func(t *testing.T) {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			golden.CheckRow(t, recorded, rows[i])
		})
	}
	if !slices.ContainsFunc(errs, func(err error) bool { return err != nil }) {
		golden.Check(t, path, rows)
	}
}

func TestEngineGolden(t *testing.T) {
	scaled, full, chem := fixedCases()
	t.Run("cells", func(t *testing.T) {
		checkCases(t, "testdata/capped_rows.jsonl", append(append(sizedCases(600), sizedCases(1500)...), scaled...))
		if t.Failed() {
			t.Fatal("the chem and full-size rows were not checked: the capped rows did not hold")
		}
		checkCases(t, "testdata/workload_rows.jsonl", full)
		checkCases(t, "testdata/chem_rows.jsonl", chem)
	})
}

package envcore_test

// The engine's oracle is a recorded file. testdata/engine_golden.txt holds
// one digest per simulated cell, written once by the engine this one
// replaced, in the commit before that engine was deleted: it ran every
// simulated process on a goroutine of its own, snapshotted every send with
// make and never handed a buffer back (and the engine that stayed, asked for
// the same file in that commit, wrote the same bytes). This binary runs with
// release-poisoning on (TestMain: every snapshot buffer the environment
// takes back is filled with NaNs), so a cell that read a released value
// cannot reproduce its row: "a released buffer is never read" is checked
// against results that never recycled anything.
//
// The file covers the default matrix (21 cells × seeds 0, 1, 2, 7), four
// perturbed cells × the same seeds, and the full span / message / wait
// streams of two traced cells × seeds 0, 7 — each at n = 600 and n = 1500
// (SIMFAST_DIFF_N picks the size; CI runs 1500) — plus three chem cells ×
// seeds 0, 5 and a down-scaled copy of each simulated benchmark workload.
// The asynchronous ADSL cells are capped so that they exercise the
// capped-stop path instead of spinning through millions of iterations.
//
// Regenerate, on purpose only, with
//
//	ENGINE_GOLDEN_WRITE=$PWD/internal/env/envcore/testdata/engine_golden.txt go test -run TestEngineGolden ./internal/env/envcore

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"aiac/internal/aiac"
	"aiac/internal/env/envcore"
	"aiac/internal/matrix"
	"aiac/internal/trace"
)

func TestMain(m *testing.M) {
	envcore.PoisonReleased(true)
	os.Exit(m.Run())
}

const goldenFile = "testdata/engine_golden.txt"

// goldenSizes are the recorded sizes of the sized sections.
var goldenSizes = []int{600, 1500}

// goldenCase is one row of the file: repetition 0 of a cell at a seed.
type goldenCase struct {
	section string
	cell    matrix.Cell
	spec    matrix.Spec
	seed    int64
	traced  bool // the digest also covers every span, message and wait
}

func (gc goldenCase) key() string {
	return fmt.Sprintf("%s %s seed=%d", gc.section, gc.cell.Key(), gc.seed)
}

// digest runs the case and hashes everything virtual about its row (and,
// for a traced case, its trace). The row itself is returned for the failure
// message.
func (gc goldenCase) digest() (sum, row string, err error) {
	var tr *trace.Collector
	if gc.traced {
		tr = trace.New()
	}
	r, err := matrix.RunCellOnce(gc.cell, gc.spec, 0, gc.seed, 0, tr)
	if err != nil {
		return "", "", err
	}
	r.Backend = ""
	b, err := json.Marshal(r)
	if err != nil {
		return "", "", err
	}
	h := sha256.New()
	h.Write(b)
	if gc.traced {
		if len(tr.Spans) == 0 || len(tr.Msgs) == 0 {
			return "", "", fmt.Errorf("trace empty: %d spans, %d msgs", len(tr.Spans), len(tr.Msgs))
		}
		fmt.Fprintln(h, tr.Spans)
		fmt.Fprintln(h, tr.Msgs)
		fmt.Fprintln(h, tr.Waits)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), string(b), nil
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

// fixedCases are the sections whose size does not follow SIMFAST_DIFF_N:
// the non-linear problem (global Newton on mpi×sync, multisplitting on both
// modes) and a scaled copy of each simulated workload of the repo benchmark
// (the specs of benchmark/workloads.go at an eighth of their size, or less,
// and with the spinning cells capped).
func fixedCases() []goldenCase {
	var out []goldenCase
	chem := matrix.DefaultSpec()
	for _, c := range []matrix.Cell{
		{Env: "mpi", Mode: aiac.Sync, Grid: "3site", Problem: "chem", Procs: 8, Size: 12},
		{Env: "pm2", Mode: aiac.Async, Grid: "3site", Problem: "chem", Procs: 8, Size: 12},
		{Env: "madmpi", Mode: aiac.Sync, Grid: "local", Problem: "chem", Procs: 8, Size: 12},
	} {
		for _, seed := range []int64{0, 5} {
			out = append(out, goldenCase{section: "chem", cell: c, spec: chem, seed: seed})
		}
	}
	syncAsync := []aiac.Mode{aiac.Sync, aiac.Async}
	linear := matrix.LinearParams{Diags: 12, Rho: 0.85, Eps: 1e-5, MaxIters: 6000, Seed: 20040426}
	workloads := []struct {
		name string
		spec matrix.Spec
	}{
		{"adsl-spin", matrix.Spec{
			Envs: []string{"pm2", "omniorb"}, Modes: syncAsync, Grids: []string{"adsl"},
			Problems: []string{"linear"}, Procs: []int{4}, Sizes: []int{1500},
		}},
		{"sync-exchange", matrix.Spec{
			Envs: matrix.EnvNames, Modes: []aiac.Mode{aiac.Sync}, Grids: []string{"3site", "local"},
			Problems: []string{"linear"}, Procs: []int{64}, Sizes: []int{2400},
		}},
		{"kernel-large", matrix.Spec{
			Envs: []string{"pm2"}, Modes: syncAsync, Grids: []string{"local"},
			Problems: []string{"linear"}, Procs: []int{2}, Sizes: []int{10000},
		}},
		{"grid-dynamics", matrix.Spec{
			Envs: []string{"pm2", "omniorb"}, Modes: syncAsync, Grids: []string{"3site"},
			Problems: []string{"linear"}, Procs: []int{8}, Sizes: []int{1500},
			Scenarios: []string{"flaky-adsl", "node-churn", "lossy-wan", "diurnal-load"},
		}},
	}
	for _, w := range workloads {
		w.spec.Linear = linear
		for _, c := range w.spec.Cells() {
			c.Backend = ""
			out = append(out, goldenCase{section: "workload/" + w.name, cell: c, spec: w.spec, seed: 20040426})
		}
	}
	return out
}

func TestEngineGolden(t *testing.T) {
	writePath := os.Getenv("ENGINE_GOLDEN_WRITE")
	var cases []goldenCase
	var want map[string]string
	if writePath != "" {
		for _, n := range goldenSizes {
			cases = append(cases, sizedCases(n)...)
		}
	} else {
		n := 600
		if s := os.Getenv("SIMFAST_DIFF_N"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v <= 0 {
				t.Fatalf("bad SIMFAST_DIFF_N %q: %v", s, err)
			}
			n = v
		}
		cases = sizedCases(n)
		want = readGolden(t)
		if _, ok := want[cases[0].key()]; !ok {
			t.Fatalf("%s has no rows at n=%d (recorded sizes: %v)", goldenFile, n, goldenSizes)
		}
	}
	cases = append(cases, fixedCases()...)

	got := make([]string, len(cases))
	t.Run("cells", func(t *testing.T) {
		for i, gc := range cases {
			t.Run(strings.ReplaceAll(gc.key(), " ", "_"), func(t *testing.T) {
				t.Parallel()
				sum, row, err := gc.digest()
				if err != nil {
					t.Fatalf("%s: %v", gc.key(), err)
				}
				if writePath == "" && sum != want[gc.key()] {
					t.Errorf("%s: digest %s, recorded %q; the row is now\n  %s", gc.key(), sum, want[gc.key()], row)
				}
				got[i] = sum
			})
		}
	})
	if writePath == "" || t.Failed() {
		return
	}
	var b strings.Builder
	for i, gc := range cases {
		fmt.Fprintf(&b, "%s %s\n", gc.key(), got[i])
	}
	if err := os.WriteFile(writePath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d rows to %s", len(cases), writePath)
}

// readGolden loads the recorded digests by row key.
func readGolden(t *testing.T) map[string]string {
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("%s: malformed row %q", goldenFile, line)
		}
		want[line[:i]] = line[i+1:]
	}
	return want
}

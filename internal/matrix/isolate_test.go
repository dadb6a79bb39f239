package matrix

import (
	"path/filepath"
	"strings"
	"testing"

	"aiac/internal/aiac"
	"aiac/internal/report"
)

// panickyProblem is a problem whose Update panics on its third call.
type panickyProblem struct {
	aiac.Problem
	calls int
}

func (p *panickyProblem) Update(rank int, bounds []int, x []float64) (float64, float64) {
	if p.calls++; p.calls == 3 {
		panic("injected Update fault")
	}
	return p.Problem.Update(rank, bounds, x)
}

// One cell of three panics inside a simulated process: the sweep finishes,
// the bad cell is an errored row carrying the panic text, its neighbours are
// measured, and the sidecar holds all three rows — the errored one never to
// be reused by a resume.
func TestPanickingCellIsIsolated(t *testing.T) {
	wrapProblem = func(c Cell, prob aiac.Problem) aiac.Problem {
		if c.Env == "pm2" {
			return &panickyProblem{Problem: prob}
		}
		return prob
	}
	t.Cleanup(func() { wrapProblem = nil })

	spec := DefaultSpec()
	spec.Envs = []string{"mpi", "pm2", "omniorb"}
	spec.Modes = []aiac.Mode{aiac.Sync}
	spec.Grids = []string{"local"}
	spec.Procs = []int{4}
	spec.Sizes = []int{600}

	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	w, err := report.CreateSidecar(path)
	if err != nil {
		t.Fatal(err)
	}
	emitted := 0
	set, err := Run(spec, Options{Workers: 1, Reps: 2, Sidecar: w, OnResult: func(report.Result) { emitted++ }})
	if err != nil {
		t.Fatalf("sweep failed as a whole: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if len(set.Results) != 3 || emitted != 3 {
		t.Fatalf("%d results, %d emitted; want 3 and 3", len(set.Results), emitted)
	}
	for _, r := range set.Results {
		if r.Env != "pm2" {
			if r.Error != "" || !r.Converged || r.Reps != 2 {
				t.Errorf("%s: healthy cell came out as error %q, converged %v, %d reps", r.Env, r.Error, r.Converged, r.Reps)
			}
			continue
		}
		if !strings.Contains(r.Error, "panic") || !strings.Contains(r.Error, "injected Update fault") ||
			!strings.Contains(r.Error, "rep 1 of 2") {
			t.Errorf("panicking cell's error = %q; want the repetition and the panic text", r.Error)
		}
		if r.Reps != 0 || r.Converged {
			t.Errorf("panicking cell reports %d completed reps, converged %v", r.Reps, r.Converged)
		}
	}
	rows, err := report.ReadSidecar(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("sidecar holds %d rows; want 3", len(rows))
	}
	executed := 0
	if _, err := Run(spec, Options{Workers: 1, Reps: 2, Prior: rows, OnResult: func(r report.Result) {
		if !r.Resumed {
			executed++
		}
	}}); err != nil {
		t.Fatal(err)
	}
	if executed != 1 {
		t.Errorf("resume re-executed %d cells; want only the errored one", executed)
	}
}

// A panic outside any simulated process — here problem assembly refusing
// a system too small for its band — is isolated the same way, and
// RunCellOnce reports it as an error instead of crashing its caller.
func TestAssemblyPanicBecomesError(t *testing.T) {
	c := Cell{Env: "pm2", Mode: aiac.Sync, Grid: "local", Problem: "linear", Procs: 8, Size: 9}
	_, err := RunCellOnce(c, DefaultSpec(), 0, 0, 0, nil)
	if err == nil || !strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), "bad system shape") {
		t.Fatalf("err = %v; want the assembly panic as an error", err)
	}
}

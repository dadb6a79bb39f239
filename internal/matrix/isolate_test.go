package matrix

import (
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"aiac/internal/aiac"
	"aiac/internal/report"
)

// panickyProblem is a problem whose Update panics on its third call, from
// whichever rank makes it (native ranks call concurrently).
type panickyProblem struct {
	aiac.Problem
	calls atomic.Int32
}

func (p *panickyProblem) Update(rank int, bounds []int, x []float64) (float64, float64) {
	if p.calls.Add(1) == 3 {
		panic("injected Update fault")
	}
	return p.Problem.Update(rank, bounds, x)
}

// Two cells of four panic — one inside a simulated process, one on a native
// rank's goroutine: the sweep finishes, each bad cell is an errored row
// carrying the panic text, their neighbours are measured, and the sidecar
// holds all four rows — the errored ones never to be reused by a resume.
func TestPanickingCellIsIsolated(t *testing.T) {
	faulty := func(env, backend string) bool { return env == "pm2" || backend == "chan" }
	wrapProblem = func(c Cell, prob aiac.Problem) aiac.Problem {
		if faulty(c.Env, c.Backend) {
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
	spec.Backends = []string{"sim", "chan"}

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
	if len(set.Results) != 4 || emitted != 4 {
		t.Fatalf("%d results, %d emitted; want 4 and 4", len(set.Results), emitted)
	}
	for _, r := range set.Results {
		if !faulty(r.Env, r.Backend) {
			if r.Error != "" || !r.Converged || r.Reps != 2 {
				t.Errorf("%s: healthy cell came out as error %q, converged %v, %d reps", r.Env, r.Error, r.Converged, r.Reps)
			}
			continue
		}
		if !strings.Contains(r.Error, "panic") || !strings.Contains(r.Error, "injected Update fault") ||
			!strings.Contains(r.Error, "rep 1 of 2") {
			t.Errorf("%s: panicking cell's error = %q; want the repetition and the panic text", r.Key(), r.Error)
		}
		if r.Reps != 0 || r.Converged {
			t.Errorf("panicking cell reports %d completed reps, converged %v", r.Reps, r.Converged)
		}
	}
	rows, err := report.ReadSidecar(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("sidecar holds %d rows; want 4", len(rows))
	}
	executed := 0
	if _, err := Run(spec, Options{Workers: 1, Reps: 2, Prior: rows, OnResult: func(r report.Result) {
		if !r.Resumed {
			executed++
		}
	}}); err != nil {
		t.Fatal(err)
	}
	if executed != 2 {
		t.Errorf("resume re-executed %d cells; want only the two errored ones", executed)
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

// The linear system is the DIA matrix only: a spec naming any other
// operator ends every linear cell, simulated and native, as an errored row
// — never as a silent DIA run — while its chem cells run.
func TestNonDIAOperatorErrorsLinearCells(t *testing.T) {
	spec := DefaultSpec()
	spec.Envs = []string{"pm2"}
	spec.Modes = []aiac.Mode{aiac.Sync}
	spec.Grids = []string{"local"}
	spec.Problems = []string{"linear", "chem"}
	spec.Procs = []int{4}
	spec.Sizes = []int{8}
	spec.Backends = []string{"sim", "chan"}
	spec.Linear.Operator = "stencil"

	set, err := Run(spec, Options{Workers: 1})
	if err != nil {
		t.Fatalf("sweep failed as a whole: %v", err)
	}
	if len(set.Results) != 4 {
		t.Fatalf("%d results, want 4", len(set.Results))
	}
	for _, r := range set.Results {
		if r.Problem == "chem" {
			if r.Error != "" || !r.Converged {
				t.Errorf("%s: error %q, converged %v; the operator is no chem parameter", r.Key(), r.Error, r.Converged)
			}
			continue
		}
		if !strings.Contains(r.Error, `operator "stencil"`) || !strings.Contains(r.Error, "item 4(b)") || r.Reps != 0 {
			t.Errorf("%s: error %q after %d reps; want the operator refused before any repetition", r.Key(), r.Error, r.Reps)
		}
	}
}

package matrix

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aiac/internal/aiac"
	"aiac/internal/report"
)

// poisonedProblem turns non-finite: from the k-th Update on, whichever
// rank makes it, the rank's block becomes NaN and the residual NaN.
type poisonedProblem struct {
	aiac.Problem
	k     int32
	calls atomic.Int32
}

func (p *poisonedProblem) Update(rank int, bounds []int, x []float64) (float64, float64) {
	res, flops := p.Problem.Update(rank, bounds, x)
	if p.calls.Add(1) < p.k {
		return res, flops
	}
	for i := bounds[rank]; i < bounds[rank+1]; i++ {
		x[i] = math.NaN()
	}
	return math.NaN(), flops
}

// A cell whose data turns non-finite ends promptly as a recorded row — not
// converged, flagged non-finite, a linear one with a NaN residual — on the
// simulator and natively, sync and async, linear and (natively, where each
// time step's solve is wrapped) chem: no cell runs on to its iteration cap.
func TestNonFiniteCellEndsAsARow(t *testing.T) {
	wrapProblem = func(c Cell, prob aiac.Problem) aiac.Problem {
		return &poisonedProblem{Problem: prob, k: 5}
	}
	t.Cleanup(func() { wrapProblem = nil })

	for _, problem := range []string{"linear", "chem"} {
		spec := DefaultSpec()
		spec.Envs = []string{"pm2"}
		spec.Modes = []aiac.Mode{aiac.Sync, aiac.Async}
		spec.Grids = []string{"local"}
		spec.Problems = []string{problem}
		spec.Procs = []int{4}
		spec.Backends = []string{"sim", "chan"}
		spec.Sizes = []int{600}
		if problem == "chem" {
			spec.Sizes = []int{8}
			spec.Backends = []string{"chan"}
		}
		start := time.Now()
		set, err := Run(spec, Options{Workers: 1, Reps: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range set.Results {
			if r.Error != "" || r.Converged || !strings.Contains(r.Flags, "non-finite") {
				t.Errorf("%s: error %q, converged %v, flags %q; want a non-finite row", r.Key(), r.Error, r.Converged, r.Flags)
			}
			if r.Problem == "linear" && !math.IsNaN(r.Residual) {
				t.Errorf("%s: residual %g on NaN data; want NaN", r.Key(), r.Residual)
			}
			if perRank := r.Iters / r.Procs; perRank > 1000 {
				t.Errorf("%s: %d iterations per rank after the data turned non-finite", r.Key(), perRank)
			}
		}
		if len(set.Results) != len(spec.Backends)*2 {
			t.Errorf("%s: %d rows, want %d", problem, len(set.Results), len(spec.Backends)*2)
		}
		if d := time.Since(start); d > 30*time.Second {
			t.Errorf("%s: the non-finite cells took %v", problem, d)
		}
	}
}

// silentNaNProblem writes NaN into rank 0's block after its k-th Update
// and reports the residuals the wrapped problem computes, which leave the
// NaN out: the cell converges on NaN data.
type silentNaNProblem struct {
	aiac.Problem
	k     int32
	calls atomic.Int32
}

func (p *silentNaNProblem) Update(rank int, bounds []int, x []float64) (float64, float64) {
	res, flops := p.Problem.Update(rank, bounds, x)
	if rank == 0 && p.calls.Add(1) == p.k {
		for i := bounds[0]; i < bounds[1]; i++ {
			x[i] = math.NaN()
		}
	}
	return res, flops
}

// A linear cell that converges on NaN data is flagged wrong-answer, on the
// simulator and natively, sync and async, and -faildelta counts the flag
// as an outcome change on a native row as on a simulated one.
func TestWrongAnswerIsFlagged(t *testing.T) {
	wrapProblem = func(c Cell, prob aiac.Problem) aiac.Problem {
		return &silentNaNProblem{Problem: prob, k: 5}
	}
	t.Cleanup(func() { wrapProblem = nil })

	spec := DefaultSpec()
	spec.Envs = []string{"pm2"}
	spec.Modes = []aiac.Mode{aiac.Sync, aiac.Async}
	spec.Grids = []string{"local"}
	spec.Problems = []string{"linear"}
	spec.Procs = []int{4}
	spec.Backends = []string{"sim", "chan"}
	spec.Sizes = []int{600}
	set, err := Run(spec, Options{Workers: 1, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Results) != 4 {
		t.Fatalf("%d rows, want 4", len(set.Results))
	}
	clean := &report.Set{}
	for _, r := range set.Results {
		t.Run(r.Backend+"/"+r.Mode, func(t *testing.T) {
			if r.Error != "" || !r.Converged || !math.IsNaN(r.Residual) || !strings.Contains(r.Flags, "wrong-answer") {
				t.Errorf("%s: error %q, converged %v, residual %g, flags %q; want a converged NaN row flagged wrong-answer",
					r.Key(), r.Error, r.Converged, r.Residual, r.Flags)
			}
		})
		r.Flags = ""
		clean.Results = append(clean.Results, r)
	}
	if v := report.Regressions(clean, set, 100); len(v) != len(set.Results) {
		t.Errorf("the flag changed the outcome of %d of %d rows: %v", len(v), len(set.Results), v)
	}
}

// The wrong-answer limit is 100·Eps/(1−Rho) on the distance to the true
// solution: a converged row at the limit is right, one past it or NaN is
// wrong, and a row that did not converge claims no answer at all.
func TestWrongAnswerBound(t *testing.T) {
	lp := LinearParams{Rho: 0.9, Eps: 1e-6}
	limit := 100 * lp.Eps / (1 - lp.Rho)
	for _, c := range []struct {
		name      string
		converged bool
		residual  float64
		want      bool
	}{
		{"exact", true, 0, false},
		{"at-limit", true, limit, false},
		{"past-limit", true, math.Nextafter(limit, 1), true},
		{"nan", true, math.NaN(), true},
		{"inf", true, math.Inf(1), true},
		{"not-converged", false, math.NaN(), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := report.Result{Converged: c.converged, Residual: c.residual}
			if got := wrongAnswer(r, lp); got != c.want {
				t.Fatalf("converged %v, residual %g (limit %g): wrong answer %v, want %v", c.converged, c.residual, limit, got, c.want)
			}
		})
	}
}

package matrix

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aiac/internal/aiac"
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

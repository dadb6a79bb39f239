package matrix

import (
	"errors"
	"math"
	"testing"

	"aiac/internal/aiac"
	"aiac/internal/problems"
)

// recordCache makes Run's assembly cache readable after the sweep.
func recordCache(t *testing.T) **problems.Cache {
	var c *problems.Cache
	newCache = func() *problems.Cache {
		c = problems.NewCache()
		return c
	}
	t.Cleanup(func() { newCache = problems.NewCache })
	return &c
}

// twoCellSpec is two linear cells of one size: each repetition's system is
// read by both.
func twoCellSpec() Spec {
	spec := DefaultSpec()
	spec.Envs = []string{"mpi", "pm2"}
	spec.Modes = []aiac.Mode{aiac.Sync}
	spec.Grids = []string{"local"}
	spec.Procs = []int{4}
	spec.Sizes = []int{600}
	return spec
}

// Repetitions run rep-major and the cache frees each system at its last
// declared use: at one worker, two cells of three repetitions hold one
// system at a time and build each of the three exactly once.
func TestSweepHoldsOneSystemAtATime(t *testing.T) {
	cache := recordCache(t)
	set, err := Run(twoCellSpec(), Options{Workers: 1, Reps: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range set.Results {
		if r.Error != "" || r.Reps != 3 {
			t.Errorf("%s: error %q after %d reps; want 3 clean reps", r.Key(), r.Error, r.Reps)
		}
	}
	if st := (*cache).Stats(); st.Misses != 3 || st.Hits != 3 || st.PeakHeld != 1 || st.Held != 0 {
		t.Errorf("cache after the sweep: %+v; want 3 misses, 3 hits, at most 1 system held, none left", st)
	}
}

// A cell that fails in its first repetition skips the others, and the
// skipped jobs release their uses: the sweep ends with the cache empty
// although the healthy cell built every system.
func TestSkippedRepetitionsReleaseTheirUses(t *testing.T) {
	cache := recordCache(t)
	wrapProblem = func(c Cell, prob aiac.Problem) aiac.Problem {
		if c.Env == "pm2" {
			return &panickyProblem{Problem: prob}
		}
		return prob
	}
	t.Cleanup(func() { wrapProblem = nil })
	set, err := Run(twoCellSpec(), Options{Workers: 1, Reps: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range set.Results {
		if failed := r.Error != ""; failed != (r.Env == "pm2") {
			t.Errorf("%s: error %q; want only the pm2 cell to fail", r.Key(), r.Error)
		}
	}
	if st := (*cache).Stats(); st.Misses != 3 || st.Held != 0 {
		t.Errorf("cache after the sweep: %+v; want 3 systems built and none left", st)
	}
}

// A solver that writes to the shared system in the last use of it is
// caught when the cache frees the system: Run returns ErrMutated though
// no later retrieval or held entry could see the write.
func TestMutationAtLastUseFailsTheSweep(t *testing.T) {
	spec := twoCellSpec()
	spec.Envs = []string{"pm2"}
	calls := 0
	wrapProblem = func(c Cell, prob aiac.Problem) aiac.Problem {
		if calls++; calls == 2 {
			b := prob.(*problems.Linear).B
			b[len(b)/2] = math.Float64frombits(math.Float64bits(b[len(b)/2]) ^ 1)
		}
		return prob
	}
	t.Cleanup(func() { wrapProblem = nil })
	set, err := Run(spec, Options{Workers: 1, Reps: 2})
	if !errors.Is(err, problems.ErrMutated) {
		t.Fatalf("Run = %v; want ErrMutated", err)
	}
	if set == nil || len(set.Results) != 1 || set.Results[0].Error != "" {
		t.Errorf("the sweep's rows must still be returned: %+v", set)
	}
}

package matrix

import (
	"math/rand"
	"strings"
	"testing"

	"aiac/internal/aiac"
)

// TestAggregateFoldsOutcomesAcrossReps is the regression test for the
// repetition-aggregation bug: Stalled, Restarts, Dropped and ReconvergeSec
// used to be taken from the median repetition only, so a cell whose
// non-median repetition stalled reported stalled=false (while
// converged=false), corrupting the degradation table. The outcome fields
// must fold across every repetition, mirroring the AND-fold of Converged.
func TestAggregateFoldsOutcomesAcrossReps(t *testing.T) {
	c := Cell{Env: "pm2", Mode: aiac.Async, Grid: "adsl", Problem: "linear", Procs: 8, Size: 1000}
	ms := []measurement{
		// The fastest repetition deadlocked mid-run: it is *not* the
		// median, which is exactly the case the old code hid.
		{timeSec: 1.0, converged: false, stalled: true, restarts: 2, reconvergeSec: 5.0, dropped: 70},
		// The median repetition is clean.
		{timeSec: 2.0, converged: true, iters: 100, messages: 10, dropped: 3},
		{timeSec: 3.0, converged: true, restarts: 1, reconvergeSec: 1.5, dropped: 9},
	}
	r := aggregate(c, ms)

	// Representative measurements still come from the median repetition.
	if r.TimeSec != 2.0 || r.MinTimeSec != 1.0 || r.Iters != 100 || r.Messages != 10 {
		t.Errorf("median-rep measurements wrong: %+v", r)
	}
	if r.Reps != 3 {
		t.Errorf("Reps = %d, want 3", r.Reps)
	}
	// Outcomes fold across all repetitions.
	if !r.Stalled {
		t.Error("a stalled non-median repetition must mark the cell stalled (the pre-fix bug reported stalled=false here)")
	}
	if r.Converged {
		t.Error("converged must AND-fold across repetitions")
	}
	if r.Restarts != 3 {
		t.Errorf("Restarts = %d, want the sum 3", r.Restarts)
	}
	if r.ReconvergeSec != 5.0 {
		t.Errorf("ReconvergeSec = %g, want the worst repetition's 5.0", r.ReconvergeSec)
	}
	if r.Dropped != 70 {
		t.Errorf("Dropped = %g, want the worst repetition's 70", float64(r.Dropped))
	}
}

// A single repetition must aggregate to exactly itself, so reps=1 sweeps
// (every committed baseline) are untouched by the aggregation fix.
func TestAggregateSingleRepIsIdentity(t *testing.T) {
	c := Cell{Env: "mpi", Mode: aiac.Sync, Grid: "local", Problem: "linear", Procs: 4, Size: 500}
	m := measurement{timeSec: 1.5, converged: true, iters: 42, messages: 7, dropped: 2, restarts: 1, reconvergeSec: 0.5, stalled: false}
	r := aggregate(c, []measurement{m})
	want := m.result(c)
	want.Reps = 1
	if r != want {
		t.Errorf("single-rep aggregation not the identity:\ngot  %+v\nwant %+v", r, want)
	}
}

// randomMeasurement draws a measurement whose fields cover the folding
// paths, with deliberate duplication (small value ranges) so permutation
// runs hit equal-time ties — the case a non-total sort order gets wrong.
func randomMeasurement(rng *rand.Rand) measurement {
	return measurement{
		timeSec:       float64(rng.Intn(4)) * 0.5, // few distinct values: ties are the point
		iters:         rng.Intn(3) * 100,
		messages:      uint64(rng.Intn(3)),
		bytes:         uint64(rng.Intn(3) * 1024),
		dropped:       uint64(rng.Intn(3)),
		residual:      float64(rng.Intn(2)) * 1e-6,
		converged:     rng.Intn(4) != 0,
		stalled:       rng.Intn(4) == 0,
		reconvergeSec: float64(rng.Intn(3)),
		restarts:      rng.Intn(2),
		heartbeats:    rng.Intn(2),
	}
}

// TestAggregatePermutationInvariance: the aggregate of a cell's
// repetitions must not depend on the order they completed in — including
// among repetitions with identical simulated times, which is where the old
// time-only sort order let the completion order pick the median.
func TestAggregatePermutationInvariance(t *testing.T) {
	c := Cell{Env: "pm2", Mode: aiac.Async, Grid: "adsl", Problem: "linear", Procs: 8, Size: 1000}
	rng := rand.New(rand.NewSource(20040426))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		ms := make([]measurement, n)
		for i := range ms {
			ms[i] = randomMeasurement(rng)
		}
		base := aggregate(c, append([]measurement(nil), ms...))
		for p := 0; p < 10; p++ {
			perm := make([]measurement, n)
			for i, j := range rng.Perm(n) {
				perm[i] = ms[j]
			}
			if got := aggregate(c, perm); got != base {
				t.Fatalf("trial %d: aggregate depends on repetition order:\nbase %+v\ngot  %+v\nreps %+v", trial, base, got, perm)
			}
		}
	}
}

// TestAggregateOutcomeFoldProperties: any stalled repetition marks the
// cell stalled, and any unconverged repetition marks the cell unconverged,
// whatever the rest of the measurements look like.
func TestAggregateOutcomeFoldProperties(t *testing.T) {
	c := Cell{Env: "madmpi", Mode: aiac.Async, Grid: "3site", Problem: "linear", Procs: 8, Size: 1000}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(6)
		ms := make([]measurement, n)
		anyStalled, allConverged := false, true
		for i := range ms {
			ms[i] = randomMeasurement(rng)
			anyStalled = anyStalled || ms[i].stalled
			allConverged = allConverged && ms[i].converged
		}
		r := aggregate(c, ms)
		if r.Stalled != anyStalled {
			t.Fatalf("trial %d: Stalled = %v, want OR-fold %v over %+v", trial, r.Stalled, anyStalled, ms)
		}
		if r.Converged != allConverged {
			t.Fatalf("trial %d: Converged = %v, want AND-fold %v over %+v", trial, r.Converged, allConverged, ms)
		}
	}
}

// TestRunCellErrorRecordsRepAndCount covers the error-path fix: a cell
// whose repetition fails must report how many repetitions actually
// completed (not the requested count) and which repetition failed.
func TestRunCellErrorRecordsRepAndCount(t *testing.T) {
	spec := DefaultSpec().withDefaults()
	c := Cell{Env: "pm2", Mode: aiac.Async, Grid: "local", Problem: "bogus", Procs: 2, Size: 500}
	r := runCell(c, spec, 3, 0, 0, nil)
	if r.Error == "" {
		t.Fatal("expected an error for an unknown problem")
	}
	if !strings.Contains(r.Error, "rep 1 of 3") {
		t.Errorf("Error should name the failing repetition: %q", r.Error)
	}
	if r.Reps != 0 {
		t.Errorf("Reps = %d, want 0 (no repetition completed)", r.Reps)
	}
	if r.HostSec <= 0 {
		t.Errorf("HostSec not recorded on the error path: %+v", r)
	}
}

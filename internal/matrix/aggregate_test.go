package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"aiac/internal/aiac"
	"aiac/internal/protocol"
	"aiac/internal/report"
)

// TestAggregateFoldsOutcomesAcrossReps is the regression test for the
// repetition-aggregation bug: Stalled, Restarts, Dropped and ReconvergeSec
// used to be taken from the median repetition only, so a cell whose
// non-median repetition stalled reported stalled=false (while
// converged=false), corrupting the degradation table. The outcome fields
// must fold across every repetition, mirroring the AND-fold of Converged.
func TestAggregateFoldsOutcomesAcrossReps(t *testing.T) {
	rs := []report.Result{
		// The fastest repetition deadlocked mid-run: it is *not* the
		// median, which is exactly the case the old code hid.
		{TimeSec: 1.0, Converged: false, Stalled: true, Restarts: 2, ReconvergeSec: 5.0, Dropped: 70},
		// The median repetition is clean.
		{TimeSec: 2.0, Converged: true, Iters: 100, Messages: 10, Dropped: 3},
		{TimeSec: 3.0, Converged: true, Restarts: 1, ReconvergeSec: 1.5, Dropped: 9},
	}
	r := aggregate(rs)

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
	one := c.identity()
	one.Reps, one.TimeSec, one.MinTimeSec, one.Converged = 1, 1.5, 1.5, true
	one.Iters, one.Messages, one.Dropped, one.Restarts, one.ReconvergeSec = 42, 7, 2, 1, 0.5
	one.GraceSec, one.AttrTotalSec, one.AttrComputeSec = 0.05, 1.5, 1.5
	if r := aggregate([]report.Result{one}); r != one {
		t.Errorf("single-rep aggregation not the identity:\ngot  %+v\nwant %+v", r, one)
	}
}

// randomRep draws a repetition whose columns cover the folding paths, with
// deliberate duplication (small value ranges) so permutation runs hit
// equal-time ties — the case a non-total sort order gets wrong — and NaN
// residuals, which a `<`-built order gives no place.
func randomRep(rng *rand.Rand) report.Result {
	return report.Result{
		Reps:          1,
		TimeSec:       float64(rng.Intn(4)) * 0.5, // few distinct values: ties are the point
		Iters:         rng.Intn(3) * 100,
		Messages:      uint64(rng.Intn(3)),
		Bytes:         uint64(rng.Intn(3) * 1024),
		Dropped:       uint64(rng.Intn(3)),
		Residual:      []float64{0, 1e-6, math.NaN()}[rng.Intn(3)],
		Converged:     rng.Intn(4) != 0,
		Stalled:       rng.Intn(4) == 0,
		ReconvergeSec: float64(rng.Intn(3)),
		Restarts:      rng.Intn(2),
		Heartbeats:    rng.Intn(2),
	}
}

// rowBits renders a row with every float as its bits, so two renderings
// are equal exactly when the rows are equal bit for bit — NaN included,
// which == never is.
func rowBits(r report.Result) string {
	v := reflect.ValueOf(r)
	var b strings.Builder
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() == reflect.Float64 {
			fmt.Fprintf(&b, "%s:%#x ", v.Type().Field(i).Name, math.Float64bits(f.Float()))
		} else {
			fmt.Fprintf(&b, "%s:%v ", v.Type().Field(i).Name, f.Interface())
		}
	}
	return b.String()
}

// TestAggregatePermutationInvariance: the aggregate of a cell's
// repetitions must not depend on the order they completed in — including
// among repetitions with identical simulated times, which is where the old
// time-only sort order let the completion order pick the median, and
// among NaN residuals, where a `<` tie-break did.
func TestAggregatePermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(20040426))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		rs := make([]report.Result, n)
		for i := range rs {
			rs[i] = randomRep(rng)
			if trial%2 == 1 {
				// Tie every column ordered ahead of the residual, so its
				// place alone decides the median.
				rs[i].TimeSec, rs[i].Iters, rs[i].Messages = rs[0].TimeSec, rs[0].Iters, rs[0].Messages
				rs[i].Bytes, rs[i].Dropped = rs[0].Bytes, rs[0].Dropped
			}
		}
		base := rowBits(aggregate(slices.Clone(rs)))
		for p := 0; p < 10; p++ {
			perm := make([]report.Result, n)
			for i, j := range rng.Perm(n) {
				perm[i] = rs[j]
			}
			if got := rowBits(aggregate(perm)); got != base {
				t.Fatalf("trial %d: aggregate depends on repetition order:\nbase %s\ngot  %s\nreps %+v", trial, base, got, perm)
			}
		}
	}
}

// TestAggregateOutcomeFoldProperties: any stalled repetition marks the
// cell stalled, and any unconverged repetition marks the cell unconverged,
// whatever the rest of the measurements look like.
func TestAggregateOutcomeFoldProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(6)
		rs := make([]report.Result, n)
		anyStalled, allConverged := false, true
		for i := range rs {
			rs[i] = randomRep(rng)
			anyStalled = anyStalled || rs[i].Stalled
			allConverged = allConverged && rs[i].Converged
		}
		r := aggregate(rs)
		if r.Stalled != anyStalled {
			t.Fatalf("trial %d: Stalled = %v, want OR-fold %v over %+v", trial, r.Stalled, anyStalled, rs)
		}
		if r.Converged != allConverged {
			t.Fatalf("trial %d: Converged = %v, want AND-fold %v over %+v", trial, r.Converged, allConverged, rs)
		}
	}
}

// unordered are the columns before deliberately leaves out: the cell's
// identity, what the aggregate sets itself, the protocol constants (one
// per cell) and the attribution (only the traced repetition has one).
var unordered = map[string]bool{
	"Env": true, "Mode": true, "Grid": true, "Problem": true, "Procs": true,
	"Size": true, "Scenario": true, "Backend": true,
	"Reps": true, "MinTimeSec": true, "HostSec": true, "Attempts": true,
	"Error": true, "Resumed": true,
	"GraceSec": true, "HeartbeatSec": true, "PersistIters": true,
}

// TestBeforeOrdersEveryColumn: two repetitions that differ in one measured
// column alone must not tie under before, or the median pick among them
// would depend on completion order. A new report.Result column fails here
// until it is ordered in before or exempted above on purpose. The exempt
// columns, conversely, must not order.
func TestBeforeOrdersEveryColumn(t *testing.T) {
	typ := reflect.TypeOf(report.Result{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		var a, b report.Result
		f := reflect.ValueOf(&b).Elem().Field(i)
		switch f.Kind() {
		case reflect.Float64:
			f.SetFloat(1)
		case reflect.Int:
			f.SetInt(1)
		case reflect.Uint64:
			f.SetUint(1)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.String:
			f.SetString("x")
		default:
			t.Fatalf("column %s: kind %s has no test value", name, f.Kind())
		}
		exempt := unordered[name] || strings.HasPrefix(name, "Attr")
		ab, ba := before(a, b), before(b, a)
		switch {
		case exempt && (ab != 0 || ba != 0):
			t.Errorf("column %s is exempt but orders repetitions (%d, %d)", name, ab, ba)
		case !exempt && (ab == 0 || ab != -ba):
			t.Errorf("column %s does not order repetitions (%d, %d): order it in before or exempt it", name, ab, ba)
		}
	}
}

// TestAbsorbFoldsEngineReports folds a chem-like run of step reports —
// clean, a restart whose rank ended unvalidated, a stall, a non-finite end —
// and checks each rule: iterations, restarts and protocol counters sum,
// convergence AND-folds with the taint, the stall OR-folds, reconvergence
// takes the worst, the protocol constants are the last step's, and only
// the non-finite step reports non-finite.
func TestAbsorbFoldsEngineReports(t *testing.T) {
	proto := protocol.Params{Grace: protocol.Time(50 * time.Millisecond), Heartbeat: protocol.Time(20 * time.Millisecond), PersistIters: 3}
	steps := []aiac.Report{
		{ItersPerRank: []int{10, 12}, Reason: aiac.StopConverged, Heartbeats: 1, Protocol: proto},
		{ItersPerRank: []int{20, 5}, Reason: aiac.StopConverged, Restarts: 2, TaintedRestarts: 1,
			Reconverge: 3 * time.Second, ReconfirmRounds: 2, Protocol: proto},
		{ItersPerRank: []int{7, 0}, Reason: aiac.StopStalled, Stalled: true,
			Reconverge: time.Second, StopRebroadcasts: 4, Protocol: proto},
		{ItersPerRank: []int{1, 1}, Reason: aiac.StopNonFinite, Heartbeats: 2, Protocol: proto},
	}
	r := report.Result{Converged: true}
	var nonFinite []bool
	for i := range steps {
		nonFinite = append(nonFinite, absorb(&r, &steps[i]))
	}
	if want := []bool{false, false, false, true}; !slices.Equal(nonFinite, want) {
		t.Errorf("non-finite per step = %v, want %v", nonFinite, want)
	}
	want := report.Result{
		Iters: 56, Converged: false, Stalled: true, Restarts: 2, ReconvergeSec: 3,
		Heartbeats: 3, StopRebroadcasts: 4, ReconfirmRounds: 2,
		GraceSec: 0.05, HeartbeatSec: 0.02, PersistIters: 3,
	}
	if r != want {
		t.Errorf("folded\n%+v\nwant\n%+v", r, want)
	}
	// A clean step keeps the fold converged and a tainted one alone ends
	// it; a solve that ended non-finite while a rank stalled folds as
	// stalled on either backend (Stalled is read, not Reason).
	clean, tainted, both := report.Result{Converged: true}, report.Result{Converged: true}, report.Result{}
	absorb(&clean, &steps[0])
	absorb(&tainted, &steps[1])
	absorb(&both, &aiac.Report{Reason: aiac.StopNonFinite, Stalled: true})
	if !clean.Converged || tainted.Converged || !both.Stalled {
		t.Errorf("converged after a clean step %v (want true), after a tainted one %v (want false); non-finite and stalled folds stalled %v (want true)",
			clean.Converged, tainted.Converged, both.Stalled)
	}
}

// TestRunCellErrorRecordsRepAndCount covers the error-path fix: a cell
// whose repetition fails must report how many repetitions actually
// completed (not the requested count) and which repetition failed.
func TestRunCellErrorRecordsRepAndCount(t *testing.T) {
	spec := DefaultSpec()
	spec.Envs = []string{"pm2"}
	spec.Modes = []aiac.Mode{aiac.Async}
	spec.Grids = []string{"local"}
	spec.Problems = []string{"bogus"}
	spec.Procs = []int{2}
	spec.Sizes = []int{500}
	set, err := Run(spec, Options{Workers: 1, Reps: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := set.Results[0]
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

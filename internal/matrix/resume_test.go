package matrix

import (
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"aiac/internal/aiac"
	"aiac/internal/report"
)

// normalize strips the per-run fields (host timing, resume marker) so
// result sets from different runs can be compared for behavioural
// identity.
func normalize(rs []report.Result) []report.Result {
	out := append([]report.Result(nil), rs...)
	for i := range out {
		out[i].HostSec = 0
		out[i].Resumed = false
	}
	return out
}

// TestResumeBitIdentical is the resume contract: a sweep interrupted
// mid-run and resumed from its sidecar produces a result set identical to
// an uninterrupted sweep, and a second resume of the complete sidecar
// executes zero cells.
func TestResumeBitIdentical(t *testing.T) {
	spec := smallSpec()
	ref, err := Run(spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	// "Interrupt" the sweep: run only one of its three cells with the
	// sidecar attached, as if the process died after the first
	// completion.
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	w, err := report.CreateSidecar(path)
	if err != nil {
		t.Fatal(err)
	}
	partial := spec
	partial.Envs = []string{"mpi"} // sync mpi only
	if _, err := Run(partial, Options{Workers: 1, Sidecar: w}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Resume the full sweep from the partial sidecar.
	rows, err := report.ReadSidecar(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("partial sidecar has %d rows, want 1", len(rows))
	}
	w2, err := report.AppendSidecar(path)
	if err != nil {
		t.Fatal(err)
	}
	executed, reused := 0, 0
	set, err := Run(spec, Options{Workers: 2, Sidecar: w2, Prior: rows, OnResult: func(r report.Result) {
		if r.Resumed {
			reused++
		} else {
			executed++
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	w2.Close()
	if reused != 1 || executed != 2 {
		t.Fatalf("resumed run reused %d and executed %d cells, want 1 and 2", reused, executed)
	}
	if !reflect.DeepEqual(normalize(set.Results), normalize(ref.Results)) {
		t.Fatalf("resumed sweep differs from uninterrupted sweep:\nresumed: %+v\nref:     %+v", normalize(set.Results), normalize(ref.Results))
	}

	// The sidecar now holds every cell: resuming again runs nothing.
	rows, err = report.ReadSidecar(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("complete sidecar has %d rows, want 3", len(rows))
	}
	executed, reused = 0, 0
	set2, err := Run(spec, Options{Workers: 2, Prior: rows, OnResult: func(r report.Result) {
		if r.Resumed {
			reused++
		} else {
			executed++
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if executed != 0 || reused != 3 {
		t.Fatalf("second resume executed %d and reused %d cells, want 0 and 3", executed, reused)
	}
	if !reflect.DeepEqual(normalize(set2.Results), normalize(ref.Results)) {
		t.Fatal("fully-resumed sweep differs from uninterrupted sweep")
	}
}

// TestResumeRejectsChangedInputs: the content address covers everything
// that determines a measurement, so changing the repetition count, the
// jitter seed, or the problem parameters invalidates every prior row.
func TestResumeRejectsChangedInputs(t *testing.T) {
	spec := smallSpec()
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	w, err := report.CreateSidecar(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec, Options{Workers: 2, Sidecar: w}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	rows, err := report.ReadSidecar(path)
	if err != nil {
		t.Fatal(err)
	}

	countExecuted := func(s Spec, o Options) int {
		executed := 0
		o.Prior = rows
		o.OnResult = func(r report.Result) {
			if !r.Resumed {
				executed++
			}
		}
		if _, err := Run(s, o); err != nil {
			t.Fatal(err)
		}
		return executed
	}
	if n := countExecuted(spec, Options{Workers: 2}); n != 0 {
		t.Errorf("unchanged sweep executed %d cells, want 0", n)
	}
	if n := countExecuted(spec, Options{Workers: 2, Reps: 2}); n != 3 {
		t.Errorf("changed reps executed %d cells, want all 3", n)
	}
	if n := countExecuted(spec, Options{Workers: 2, Seed: 99}); n != 3 {
		t.Errorf("changed jitter seed executed %d cells, want all 3", n)
	}
	tweaked := spec
	tweaked.Linear.Rho = 0.75
	if n := countExecuted(tweaked, Options{Workers: 2}); n != 3 {
		t.Errorf("changed problem params executed %d cells, want all 3", n)
	}
}

// TestResumeSkipsErroredRows: a prior row that recorded an error is not a
// valid measurement — resuming must re-execute that cell.
func TestResumeSkipsErroredRows(t *testing.T) {
	spec := smallSpec().withDefaults()
	cells := spec.Cells()
	if len(cells) != 3 {
		t.Fatalf("want 3 cells, got %d", len(cells))
	}
	key := cellCacheKey(cells[0], spec, 1, 0, 0)
	rows := []report.SidecarRow{{
		CacheKey: key,
		Result:   report.Result{Env: cells[0].Env, Error: "deploy failed"},
	}}
	executed := 0
	if _, err := Run(spec, Options{Workers: 2, Prior: rows, OnResult: func(r report.Result) {
		if !r.Resumed {
			executed++
		}
	}}); err != nil {
		t.Fatal(err)
	}
	if executed != 3 {
		t.Errorf("executed %d cells, want all 3 (errored prior rows must re-run)", executed)
	}
}

// TestScheduleLongestFirst checks the makespan heuristic on the default
// sweep: the three asynchronous solves behind the ADSL uplink — the giant
// cells, whatever the middleware — are fed to the pool first, and a cheap
// local-grid cell last.
func TestScheduleLongestFirst(t *testing.T) {
	spec := DefaultSpec().withDefaults()
	cells := spec.Cells()
	idx := make([]int, len(cells))
	for i := range idx {
		idx[i] = i
	}
	scheduleLongestFirst(idx, cells)
	var first []string
	for _, i := range idx[:3] {
		c := cells[i]
		if c.Grid != "adsl" || c.Mode != aiac.Async {
			t.Errorf("scheduled %s among the first three, want only async adsl cells", c.Key())
		}
		first = append(first, c.Env)
	}
	sort.Strings(first)
	if got := strings.Join(first, ","); got != "madmpi,omniorb,pm2" {
		t.Errorf("first three scheduled environments = %s, want madmpi,omniorb,pm2", got)
	}
	if last := cells[idx[len(idx)-1]]; last.Grid != "local" {
		t.Errorf("last scheduled cell is %s, want a cheap local-grid cell", last.Key())
	}
}

// TestResumeRunsOnlyMissingRepetitions: a multi-repetition sweep records
// every finished repetition, rep-major, beside its cell rows, so a sweep
// killed between rounds resumes only the repetitions it lacks, and one
// killed after a cell's last repetition but before the cell's row folds
// that cell without running anything. Either way the rows equal an
// uninterrupted sweep's.
func TestResumeRunsOnlyMissingRepetitions(t *testing.T) {
	spec := twoCellSpec()
	const reps = 3
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	w, err := report.CreateSidecar(path)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(spec, Options{Workers: 1, Reps: reps, Sidecar: w})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	rows, err := report.ReadSidecar(path)
	if err != nil {
		t.Fatal(err)
	}
	var repRows []report.SidecarRow
	lastRep := 0
	for _, row := range rows {
		if !row.IsRepetition() {
			continue
		}
		rep := int(row.CacheKey[len(row.CacheKey)-1] - '0')
		if rep < lastRep {
			t.Errorf("repetition %d recorded after repetition %d: the sweep is not rep-major", rep, lastRep)
		}
		lastRep = rep
		repRows = append(repRows, row)
	}
	if len(repRows) != 2*reps || len(rows) != 2*reps+2 {
		t.Fatalf("sidecar holds %d rows, %d of repetitions; want %d and %d", len(rows), len(repRows), 2*reps+2, 2*reps)
	}

	var solved atomic.Int32
	wrapProblem = func(c Cell, prob aiac.Problem) aiac.Problem {
		solved.Add(1)
		return prob
	}
	t.Cleanup(func() { wrapProblem = nil })
	for _, tc := range []struct {
		name       string
		prior      []report.SidecarRow
		ran, fresh int // repetitions solved; cells delivered as executed
	}{
		{"killed after three repetitions", repRows[:3], 2*reps - 3, 2},
		{"killed before the cell rows", repRows, 0, 0},
	} {
		solved.Store(0)
		executed := 0
		set, err := Run(spec, Options{Workers: 1, Reps: reps, Prior: tc.prior, OnResult: func(r report.Result) {
			if !r.Resumed {
				executed++
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		if n := int(solved.Load()); n != tc.ran || executed != tc.fresh {
			t.Errorf("%s: solved %d repetitions and executed %d cells; want %d and %d", tc.name, n, executed, tc.ran, tc.fresh)
		}
		if !reflect.DeepEqual(normalize(set.Results), normalize(ref.Results)) {
			t.Errorf("%s: resumed rows differ from the uninterrupted sweep's:\n%+v\n%+v", tc.name, normalize(set.Results), normalize(ref.Results))
		}
	}
}

package matrix

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"aiac/internal/aiac"
	"aiac/internal/problems"
	"aiac/internal/report"
	"aiac/internal/trace"
)

// smallSpec is a fast spec for runner tests: three versions on the local
// grid at a size that solves in well under a second of host time.
func smallSpec() Spec {
	s := DefaultSpec()
	s.Envs = []string{"mpi", "pm2"}
	s.Grids = []string{"local"}
	s.Procs = []int{4}
	s.Sizes = []int{4000}
	s.Linear = LinearParams{Diags: 6, Rho: 0.8, Eps: 1e-6, MaxIters: 200000, Seed: 7}
	return s
}

func TestDefaultSpecCells(t *testing.T) {
	cells := DefaultSpec().Cells()
	// 3 grids × (4 sync versions + 3 async versions) for one problem,
	// one procs count, one size.
	if len(cells) != 21 {
		t.Fatalf("default spec enumerates %d cells, want 21", len(cells))
	}
	// Paper row order: the synchronous baseline leads each group.
	if cells[0].Env != "mpi" || cells[0].Mode != aiac.Sync {
		t.Fatalf("first cell = %s, want the sync-mpi baseline", cells[0].Key())
	}
	for _, c := range cells {
		if c.Env == "mpi" && c.Mode == aiac.Async {
			t.Fatalf("enumerated unsupported cell %s", c.Key())
		}
	}
}

func TestCellsDeterministicOrder(t *testing.T) {
	a, b := DefaultSpec().Cells(), DefaultSpec().Cells()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("enumeration order is not deterministic")
	}
}

func TestSupported(t *testing.T) {
	if Supported("mpi", aiac.Async) {
		t.Error("async on mono-threaded MPI must be unsupported")
	}
	for _, env := range EnvNames {
		if !Supported(env, aiac.Sync) {
			t.Errorf("sync on %s must be supported", env)
		}
	}
}

// A key names exactly one run: every cell a sweep can enumerate — every
// environment, mode, problem and scenario on the simulator and on both
// native backends — parses back to itself, and every key no sweep prints
// is refused with its reason.
func TestParseKeyAcceptsExactlyTheCells(t *testing.T) {
	spec := Spec{Scenarios: ScenarioNames, Backends: []string{"sim", "chan", "tcp"}}
	cells := spec.Cells()
	native := 0
	for _, c := range cells {
		got, err := ParseKey(c.Key())
		if err != nil {
			t.Errorf("enumerated cell %s is refused: %v", c.Key(), err)
			continue
		}
		if got != c {
			t.Errorf("ParseKey(%s) = %+v, want %+v", c.Key(), got, c)
		}
		if c.Env == NativeEnv {
			native++
		}
	}
	// 4 grids × 2 problems × (5 scenarios × 7 simulated versions + 3
	// native scenarios × 2 modes × 2 transports).
	if len(cells) != 8*(5*7+3*2*2) || native != 8*3*2*2 {
		t.Fatalf("spec enumerates %d cells (%d native), want %d (%d)", len(cells), native, 8*(5*7+3*2*2), 8*3*2*2)
	}
	for _, tc := range []struct{ key, want string }{
		{"pm2/async/local/linear/p4/n600/static/chan", "want env go"},
		{"go/async/local/linear/p4/n600/static/sim", "native backends only"},
		{"go/sync/local/linear/p4/n600/static/sim-fast", "native backends only"},
		{"go/sync/local/linear/p4/n600/node-churn/chan", "scenario node-churn has no native analogue"},
		{"go/async/adsl/chem/p4/n36/diurnal-load/tcp", "scenario diurnal-load has no native analogue"},
		{"pm2,mpi/async/local/linear/p4/n600/static/sim", "one value per component"},
		{"pm2/sync,async/local/linear/p4/n600/static/sim", "one value per component"},
		{"pm2/async/local/linear/p4/n600/static/sim,chan", "one value per component"},
		{"mpi/async/local/linear/p4/n600/static/sim", "mpi does not support async mode"},
		{"corba/async/local/linear/p4/n600/static/sim", `unknown environment "corba"`},
		{"pm2/async/local/linear/p+4/n600/static/sim", "not written as a sweep prints it"},
		{"pm2/async/local/linear/p4/n0600/static/sim", "not written as a sweep prints it"},
		{"pm2/async/local/linear/p4/n600/static/", "not written as a sweep prints it"},
		{"pm2/async/local/linear/p4/n600/static/sim/", "want env/mode/grid"},
		{" pm2/async/local/linear/p4/n600/static/sim", "not written as a sweep prints it"},
	} {
		_, err := ParseKey(tc.key)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseKey(%q) = %v, want an error containing %q", tc.key, err, tc.want)
		}
	}
}

func TestParseFilters(t *testing.T) {
	envs, err := ParseEnvs(" pm2, mpi ")
	if err != nil || !reflect.DeepEqual(envs, []string{"pm2", "mpi"}) {
		t.Fatalf("ParseEnvs = %v, %v", envs, err)
	}
	if all, err := ParseEnvs(""); err != nil || !reflect.DeepEqual(all, EnvNames) {
		t.Fatalf("empty filter should select all envs, got %v, %v", all, err)
	}
	if _, err := ParseEnvs("corba"); err == nil || !strings.Contains(err.Error(), "unknown environment") {
		t.Fatalf("unknown env error = %v", err)
	}
	if _, err := ParseGrids("9site"); err == nil {
		t.Fatal("unknown grid accepted")
	}
	modes, err := ParseModes("async")
	if err != nil || len(modes) != 1 || modes[0] != aiac.Async {
		t.Fatalf("ParseModes(async) = %v, %v", modes, err)
	}
	if _, err := ParseModes("half-sync"); err == nil {
		t.Fatal("unknown mode accepted")
	}
	ints, err := ParseInts("procs", "8, 12")
	if err != nil || !reflect.DeepEqual(ints, []int{8, 12}) {
		t.Fatalf("ParseInts = %v, %v", ints, err)
	}
	if ints, err := ParseInts("procs", ""); err != nil || ints != nil {
		t.Fatalf("empty int list = %v, %v, want nil default", ints, err)
	}
	if _, err := ParseInts("procs", "-3"); err == nil {
		t.Fatal("negative int accepted")
	}
	if _, err := ParseInts("procs", "eight"); err == nil {
		t.Fatal("non-numeric int accepted")
	}
}

func TestNewGridNewEnvUnknown(t *testing.T) {
	if _, err := NewGrid(nil, "mesh", 4); err == nil {
		t.Fatal("unknown grid accepted")
	}
}

// TestRunDeterministicUnderParallelism asserts the sweep's core contract:
// each cell owns its simulator, so the result set is bit-identical whatever
// the worker count (only host timing may differ).
func TestRunDeterministicUnderParallelism(t *testing.T) {
	spec := smallSpec()
	run := func(workers int) []report.Result {
		set, err := Run(spec, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		rs := set.Results
		for i := range rs {
			rs[i].HostSec = 0
		}
		return rs
	}
	serial := run(1)
	parallel := run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("results differ across worker counts:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	if len(serial) != 3 { // sync mpi, sync pm2, async pm2
		t.Fatalf("got %d results, want 3", len(serial))
	}
	for _, r := range serial {
		if r.Error != "" {
			t.Fatalf("cell %s failed: %s", r.Key(), r.Error)
		}
		if !r.Converged {
			t.Errorf("cell %s did not converge", r.Key())
		}
		if r.TimeSec <= 0 || r.Iters <= 0 || r.Messages == 0 {
			t.Errorf("cell %s has empty measurements: %+v", r.Key(), r)
		}
		if r.Problem == "linear" && r.Residual > 1e-4 {
			t.Errorf("cell %s residual %g too large", r.Key(), r.Residual)
		}
	}
}

func TestRunRepsAggregation(t *testing.T) {
	spec := smallSpec()
	spec.Envs = []string{"pm2"}
	spec.Modes = []aiac.Mode{aiac.Async}
	set, err := Run(spec, Options{Workers: 2, Reps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Results) != 1 {
		t.Fatalf("got %d results, want 1", len(set.Results))
	}
	r := set.Results[0]
	if r.Reps != 3 {
		t.Errorf("Reps = %d, want 3", r.Reps)
	}
	if r.MinTimeSec <= 0 || r.MinTimeSec > r.TimeSec {
		t.Errorf("min/median aggregation broken: min=%g median=%g", r.MinTimeSec, r.TimeSec)
	}
}

func TestRunStreamsResults(t *testing.T) {
	spec := smallSpec()
	var streamed []string
	set, err := Run(spec, Options{Workers: 4, OnResult: func(r report.Result) {
		streamed = append(streamed, r.Key())
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(set.Results) {
		t.Fatalf("streamed %d results, set has %d", len(streamed), len(set.Results))
	}
}

func TestRunEmptySpec(t *testing.T) {
	spec := smallSpec()
	spec.Modes = []aiac.Mode{aiac.Async}
	spec.Envs = []string{"mpi"} // async×mpi is unsupported → no cells
	if _, err := Run(spec, Options{}); err == nil {
		t.Fatal("expected an error for a spec selecting no cells")
	}
}

func TestScenarioAxisEnumeration(t *testing.T) {
	spec := smallSpec()
	spec.Scenarios = []string{"static", "flaky-adsl"}
	cells := spec.Cells()
	if len(cells) != 6 { // 3 versions × 2 scenarios
		t.Fatalf("enumerated %d cells, want 6", len(cells))
	}
	// Static cells come first in each group so degradation tables follow
	// their baseline.
	if cells[0].Scenario != "static" || cells[3].Scenario != "flaky-adsl" {
		t.Fatalf("scenario order wrong: %s then %s", cells[0].Key(), cells[3].Key())
	}
	if !strings.HasSuffix(cells[5].Key(), "/flaky-adsl/sim") {
		t.Fatalf("cell key lacks the scenario/backend suffix: %s", cells[5].Key())
	}
}

func TestParseScenarios(t *testing.T) {
	got, err := ParseScenarios("flaky-adsl, node-churn")
	if err != nil || len(got) != 2 || got[0] != "flaky-adsl" {
		t.Fatalf("ParseScenarios = %v, %v", got, err)
	}
	if _, err := ParseScenarios("bogus"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if all, err := ParseScenarios(""); err != nil || len(all) != len(ScenarioNames) {
		t.Fatalf("empty filter = %v, %v", all, err)
	}
}

// TestScenarioCellRuns sweeps one dynamic cell end to end and checks the
// degradation measurements surface in the result.
func TestScenarioCellRuns(t *testing.T) {
	spec := smallSpec()
	spec.Envs = []string{"pm2"}
	spec.Modes = []aiac.Mode{aiac.Async}
	spec.Scenarios = []string{"static", "diurnal-load"}
	set, err := Run(spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Results) != 2 {
		t.Fatalf("got %d results", len(set.Results))
	}
	static, dyn := set.Results[0], set.Results[1]
	if static.Scenario != "static" || dyn.Scenario != "diurnal-load" {
		t.Fatalf("scenario labels wrong: %q, %q", static.Scenario, dyn.Scenario)
	}
	if !dyn.Converged {
		t.Fatalf("diurnal-load cell did not converge: %+v", dyn)
	}
	// Background load on odd ranks slows the local-grid solve down.
	if dyn.TimeSec <= static.TimeSec {
		t.Errorf("diurnal load did not slow the run: %g vs %g", dyn.TimeSec, static.TimeSec)
	}
	if dyn.ReconvergeSec <= 0 {
		t.Errorf("no reconvergence time measured: %+v", dyn)
	}
}

func TestBackendAxisEnumeration(t *testing.T) {
	spec := smallSpec()
	spec.Backends = []string{"sim", "chan", "tcp"}
	cells := spec.Cells()
	// 3 sim versions + 2 native versions (sync go, async go) per native
	// backend.
	if len(cells) != 7 {
		t.Fatalf("enumerated %d cells, want 7: %v", len(cells), cells)
	}
	if cells[0].backendName() != "sim" || cells[3].Backend != "chan" || cells[5].Backend != "tcp" {
		t.Fatalf("backend order wrong: %s / %s / %s", cells[0].Key(), cells[3].Key(), cells[5].Key())
	}
	for _, c := range cells[3:] {
		if c.Env != NativeEnv {
			t.Fatalf("native cell %s should use the %q pseudo-environment", c.Key(), NativeEnv)
		}
		if c.Mode == aiac.Sync && c != cells[3] && c != cells[5] {
			t.Fatalf("native versions out of baseline-first order: %s", c.Key())
		}
	}
	if !strings.HasSuffix(cells[6].Key(), "/static/tcp") {
		t.Fatalf("cell key lacks the backend suffix: %s", cells[6].Key())
	}

	// Every committed problem enumerates native cells now that the
	// protocol core is runtime-agnostic.
	for _, prob := range ProblemNames {
		probSpec := spec
		probSpec.Problems = []string{prob}
		native := 0
		for _, c := range probSpec.Cells() {
			if c.backendName() != "sim" {
				native++
			}
		}
		if native == 0 {
			t.Fatalf("problem %s enumerated no native cells", prob)
		}
	}
	// Scenarios with a steady-state transport analogue are legal native
	// cells; the scripted CPU/crash presets stay simulator-only.
	for _, tc := range []struct {
		scen   string
		native bool
	}{
		{"flaky-adsl", true},
		{"lossy-wan", true},
		{"diurnal-load", false},
		{"node-churn", false},
	} {
		dynSpec := spec
		dynSpec.Scenarios = []string{tc.scen}
		native := 0
		for _, c := range dynSpec.Cells() {
			if c.backendName() != "sim" {
				native++
			}
		}
		if (native > 0) != tc.native {
			t.Fatalf("scenario %s: %d native cells, want native=%v", tc.scen, native, tc.native)
		}
	}
}

func TestParseBackends(t *testing.T) {
	got, err := ParseBackends("chan, tcp")
	if err != nil || !reflect.DeepEqual(got, []string{"chan", "tcp"}) {
		t.Fatalf("ParseBackends = %v, %v", got, err)
	}
	if def, err := ParseBackends(""); err != nil || !reflect.DeepEqual(def, []string{"sim"}) {
		t.Fatalf("empty backend filter should select sim only, got %v, %v", def, err)
	}
	if _, err := ParseBackends("cuda"); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// TestNativeCellRuns sweeps native cells end to end through the matrix:
// both transports, both modes, wall-clock columns filled, residual at the
// simulated twin's tolerance.
func TestNativeCellRuns(t *testing.T) {
	spec := smallSpec()
	spec.Envs = []string{"pm2"}
	spec.Backends = []string{"sim", "chan", "tcp"}
	set, err := Run(spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 2 sim versions (sync/async pm2) + 2 native versions × 2 transports.
	if len(set.Results) != 6 {
		t.Fatalf("got %d results, want 6", len(set.Results))
	}
	native := 0
	for _, r := range set.Results {
		if r.Error != "" {
			t.Fatalf("cell %s failed: %s", r.Key(), r.Error)
		}
		if !r.Converged {
			t.Fatalf("cell %s did not converge", r.Key())
		}
		if r.BackendOrSim() == "sim" {
			if r.WallSec != 0 {
				t.Errorf("sim cell %s has a wall clock: %+v", r.Key(), r)
			}
			continue
		}
		native++
		if r.Env != NativeEnv {
			t.Errorf("native result %s should be env %q", r.Key(), NativeEnv)
		}
		if r.WallSec <= 0 || r.TimeSec != r.WallSec {
			t.Errorf("native cell %s: TimeSec %g should equal WallSec %g > 0", r.Key(), r.TimeSec, r.WallSec)
		}
		if r.Residual > 1e-4 {
			t.Errorf("native cell %s residual %g too large", r.Key(), r.Residual)
		}
		if r.Messages == 0 || r.Iters == 0 {
			t.Errorf("native cell %s has empty measurements: %+v", r.Key(), r)
		}
	}
	if native != 4 {
		t.Fatalf("ran %d native cells, want 4", native)
	}
}

// A native cell that cannot finish must be cancelled by the sweep's
// wall-clock guard and reported as stalled, not hang the run.
func TestNativeCellTimeoutStalls(t *testing.T) {
	spec := smallSpec()
	spec.Backends = []string{"chan"}
	spec.Modes = []aiac.Mode{aiac.Async}
	spec.Linear.Eps = 1e-300 // unreachable
	set, err := Run(spec, Options{Timeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	r := set.Results[0]
	if r.Error != "" {
		t.Fatalf("cell errored instead of stalling: %s", r.Error)
	}
	if !r.Stalled || r.Converged {
		t.Fatalf("timed-out native cell should report a stall: %+v", r)
	}
}

func TestTracingNativeCell(t *testing.T) {
	// The chemical problem runs one native solve per time step, each with
	// its own clock epoch — the one native shape that cannot be traced.
	c := Cell{Env: NativeEnv, Mode: aiac.Async, Grid: "local", Problem: "chem",
		Procs: 2, Size: 6, Backend: "chan"}
	if _, err := RunCellOnce(c, DefaultSpec(), 0, 0, 0, trace.New()); err == nil {
		t.Fatal("tracing a native chem cell should be rejected")
	}
	// Single-solve problems trace natively: compute spans, blocking
	// waits, and paired send/receive message records in wall-clock
	// nanoseconds.
	c.Problem = "linear"
	c.Size = 500
	tr := trace.New()
	spec := DefaultSpec()
	spec.Sizes = []int{500}
	if _, err := RunCellOnce(c, spec, 0, 0, 0, tr); err != nil {
		t.Fatalf("tracing a native linear cell: %v", err)
	}
	if len(tr.Spans) == 0 || len(tr.Msgs) == 0 || len(tr.Waits) == 0 {
		t.Fatalf("native trace incomplete: %d spans, %d msgs, %d waits",
			len(tr.Spans), len(tr.Msgs), len(tr.Waits))
	}
	for _, m := range tr.Msgs {
		if m.Recv < m.Sent {
			t.Fatalf("message recv %v before its send %v", m.Recv, m.Sent)
		}
	}
}

// TestSeedGivesDistinctDeterministicReps is the -seed contract: with a
// seed, repetitions differ (jitter streams) but the whole sweep replays
// bit-identically; without one, repetitions of a seedless problem collapse
// to a single run.
func TestSeedGivesDistinctDeterministicReps(t *testing.T) {
	spec := smallSpec()
	spec.Envs = []string{"pm2"}
	spec.Modes = []aiac.Mode{aiac.Async}
	run := func(seed int64) report.Result {
		set, err := Run(spec, Options{Workers: 1, Reps: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return set.Results[0]
	}
	a, b := run(42), run(42)
	if a.TimeSec != b.TimeSec || a.MinTimeSec != b.MinTimeSec {
		t.Fatalf("same seed not reproducible: %+v vs %+v", a, b)
	}
	if a.MinTimeSec == a.TimeSec {
		t.Errorf("jittered repetitions are identical: median == min == %g", a.TimeSec)
	}
	c := run(0)
	if c.MinTimeSec != c.TimeSec {
		// The linear problem still perturbs its matrix seed per rep, so
		// reps may differ; just check determinism held.
		d := run(0)
		if c.TimeSec != d.TimeSec {
			t.Fatalf("seedless sweep not deterministic")
		}
	}
}

// TestCellSolve pins the builder the sim and native runners share: one
// cached system for a sim and a native cell of one repetition, a new one
// for the next, an equal fresh one from a nil cache, and an error for any
// other problem — chem, which builds its own steps, and the removed
// gmres and newton, which no spec can name any more.
func TestCellSolve(t *testing.T) {
	spec := DefaultSpec()
	t.Run("linear", func(t *testing.T) {
		cache := problems.NewCache()
		sim := Cell{Env: "pm2", Mode: aiac.Async, Grid: "local", Problem: "linear", Procs: 4, Size: 600}
		native := sim
		native.Env, native.Backend = "go", "chan"
		a, err := cellSolve(sim, spec, 0, cache)
		if err != nil || len(a.XTrue) != sim.Size {
			t.Fatalf("cellSolve = %d unknowns, %v; want %d unknowns", len(a.XTrue), err, sim.Size)
		}
		if b, _ := cellSolve(native, spec, 0, cache); &b.XTrue[0] != &a.XTrue[0] {
			t.Error("a native cell built its own system instead of the sim cell's cached one")
		}
		cellSolve(sim, spec, 1, cache)
		if hits, misses := cache.Stats(); hits != 1 || misses != 2 {
			t.Errorf("cache after rep 0 sim, rep 0 native, rep 1 sim: %d hits, %d misses; want 1 and 2", hits, misses)
		}
		if f, _ := cellSolve(sim, spec, 0, nil); &f.XTrue[0] == &a.XTrue[0] || !reflect.DeepEqual(f.XTrue, a.XTrue) {
			t.Error("a nil cache must build an equal system of its own")
		}
	})
	for _, problem := range []string{"chem", "gmres", "newton"} {
		t.Run(problem, func(t *testing.T) {
			cache := problems.NewCache()
			if l, err := cellSolve(Cell{Problem: problem, Size: 600}, spec, 0, cache); err == nil || l != nil {
				t.Errorf("cellSolve built a %s cell (%v); only linear cells go through it", problem, err)
			}
			if hits, misses := cache.Stats(); hits != 0 || misses != 0 {
				t.Errorf("a refused %s cell touched the cache: %d hits, %d misses", problem, hits, misses)
			}
		})
	}
}

// Both runners solve a linear cell to spec.Linear's budget: five
// iterations end every rank at its cap, simulated and native.
func TestLinearCellsKeepLinearBudget(t *testing.T) {
	spec := DefaultSpec()
	spec.Linear.MaxIters = 5
	sim := Cell{Env: "pm2", Mode: aiac.Async, Grid: "local", Problem: "linear", Procs: 4, Size: 600}
	native := sim
	native.Env, native.Backend = NativeEnv, "chan"
	for _, c := range []Cell{sim, native} {
		r, err := RunCellOnce(c, spec, 0, 0, 0, nil)
		if err != nil || r.Converged || r.Iters != c.Procs*spec.Linear.MaxIters {
			t.Errorf("%s: converged %v after %d iterations, %v; want %d, capped", c.Key(), r.Converged, r.Iters, err, c.Procs*spec.Linear.MaxIters)
		}
	}
}

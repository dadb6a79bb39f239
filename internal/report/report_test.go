package report

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sample() *Set {
	return &Set{
		CreatedAt: "2026-07-28T00:00:00Z",
		Command:   "aiacbench -workers 8",
		Results: []Result{
			{Env: "mpi", Mode: "sync", Grid: "adsl", Problem: "linear", Procs: 8, Size: 30000,
				Reps: 1, TimeSec: 120, MinTimeSec: 120, Iters: 4000, Messages: 900, Bytes: 8e6,
				InterSite: 300, Residual: 2e-8, Converged: true},
			{Env: "pm2", Mode: "async", Grid: "adsl", Problem: "linear", Procs: 8, Size: 30000,
				Reps: 1, TimeSec: 30, MinTimeSec: 30, Iters: 9000, Messages: 2400, Bytes: 20e6,
				InterSite: 800, Residual: 5e-8, Converged: true},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	s := sample()
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := WriteFile(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || got.CreatedAt != s.CreatedAt || got.Command != s.Command {
		t.Fatalf("metadata did not round-trip: %+v", got)
	}
	if !reflect.DeepEqual(got.Results, s.Results) {
		t.Fatalf("results did not round-trip:\nwrote %+v\nread  %+v", s.Results, got.Results)
	}
}

// One schema is read. A file of any other — here the head of the schema-1
// BENCH_baseline.json this repo committed until the references were
// regenerated — is refused with the command that regenerates it, and so
// is one from a newer binary.
func TestReadFileRefusesOtherSchemas(t *testing.T) {
	const old = `{
  "schema": 1,
  "created_at": "2026-07-28T13:56:25Z",
  "command": "/tmp/aiacbench -workers 8 -o BENCH_baseline.json",
  "results": [{"env": "mpi", "mode": "sync", "grid": "3site", "problem": "linear", "procs": 8, "size": 12000,
    "scenario": "static", "reps": 1, "time_sec": 3.542821372, "min_time_sec": 3.542821372, "iters": 304,
    "messages": 3474, "bytes": 19795328, "inter_site": 2594, "residual": 0.000004259473251888579,
    "converged": true, "host_sec": 0.154172492}]
}`
	for name, tc := range map[string]struct{ body, hint string }{
		"schema-1 baseline": {old, "regenerate it with `/tmp/aiacbench -workers 8 -o BENCH_baseline.json`"},
		"newer schema":      {`{"schema": 999, "results": []}`, "regenerate it with the sweep that wrote it"},
		"no schema":         {`{"results": []}`, "has schema 0"},
	} {
		path := filepath.Join(t.TempDir(), "other.json")
		if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFile(path); err == nil || !strings.Contains(err.Error(), tc.hint) {
			t.Errorf("%s: error %v, want a refusal saying %q", name, err, tc.hint)
		}
	}
}

// A baseline that cannot compare anything must not gate: Regressions walks
// the baseline's rows, so an empty or disjoint one would pass vacuously.
func TestCovers(t *testing.T) {
	s := sample()
	if err := s.Covers([]string{"no/such/cell", s.Results[1].Key()}); err != nil {
		t.Errorf("a shared cell is enough, got %v", err)
	}
	if err := s.Covers([]string{"pm2/async/local/linear/p8/n1500/static/sim"}); err == nil || !strings.Contains(err.Error(), "shares no cell") {
		t.Errorf("disjoint baseline: error %v", err)
	}
	if err := (&Set{Schema: Schema}).Covers([]string{s.Results[0].Key()}); err == nil || !strings.Contains(err.Error(), "no results") {
		t.Errorf("empty baseline: error %v", err)
	}
}

func TestReadFileRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.json")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("accepted a non-JSON file")
	}
}

func TestLookup(t *testing.T) {
	s := sample()
	// Empty Scenario and Backend fields normalise to static/sim in the
	// key.
	r, ok := s.Lookup("pm2/async/adsl/linear/p8/n30000/static/sim")
	if !ok || r.Env != "pm2" {
		t.Fatalf("Lookup = %+v, %v", r, ok)
	}
	if _, ok := s.Lookup("nope"); ok {
		t.Fatal("Lookup found a missing key")
	}
}

func TestTableRatios(t *testing.T) {
	out := sample().Table()
	// The async PM2 cell is 4x faster than the sync baseline on the ADSL
	// grid, so its ratio column must read 4.00.
	if !strings.Contains(out, "4.00") {
		t.Fatalf("table lacks the sync/async ratio:\n%s", out)
	}
	if !strings.Contains(out, "sync mpi") || !strings.Contains(out, "async pm2") {
		t.Fatalf("table lacks version rows:\n%s", out)
	}
}

func TestTableMarksErrors(t *testing.T) {
	s := sample()
	s.Results = append(s.Results, Result{
		Env: "pm2", Mode: "async", Grid: "3site", Problem: "linear", Procs: 8, Size: 30000,
		Error: "deployment refused",
	})
	if out := s.Table(); !strings.Contains(out, "deployment refused") {
		t.Fatalf("table hides cell errors:\n%s", out)
	}
}

func TestScalingTable(t *testing.T) {
	s := &Set{Results: []Result{
		{Env: "pm2", Mode: "async", Grid: "local", Problem: "chem", Procs: 10, Size: 50, TimeSec: 100},
		{Env: "pm2", Mode: "async", Grid: "local", Problem: "chem", Procs: 20, Size: 50, TimeSec: 60},
	}}
	out := s.ScalingTable()
	// Speedup 100/60 = 1.67; efficiency 1.67*10/20 = 0.83.
	if !strings.Contains(out, "1.67") || !strings.Contains(out, "0.83") {
		t.Fatalf("scaling derivations missing:\n%s", out)
	}
	if sample().ScalingTable() != "" {
		t.Fatal("single-procs sweep should produce no scaling table")
	}
}

func TestDegradationTable(t *testing.T) {
	s := sample()
	if s.DegradationTable() != "" {
		t.Fatal("static-only set should produce no degradation table")
	}
	s.Results = append(s.Results,
		Result{Env: "mpi", Mode: "sync", Grid: "adsl", Problem: "linear", Procs: 8, Size: 30000,
			Scenario: "flaky-adsl", TimeSec: 300, Stalled: true},
		Result{Env: "pm2", Mode: "async", Grid: "adsl", Problem: "linear", Procs: 8, Size: 30000,
			Scenario: "flaky-adsl", TimeSec: 45, Converged: true, ReconvergeSec: 3.5, Restarts: 2},
	)
	out := s.DegradationTable()
	// async pm2: 45s vs static 30s = +50.0% overhead, 3.50s reconverge.
	if !strings.Contains(out, "+50.0%") || !strings.Contains(out, "3.50s") {
		t.Fatalf("degradation derivations missing:\n%s", out)
	}
	if !strings.Contains(out, "STALL") {
		t.Fatalf("stalled sync cell not marked:\n%s", out)
	}
}

// nativeSample extends sample() with native twins of both sim cells.
func nativeSample() *Set {
	s := sample()
	s.Results = append(s.Results,
		Result{Env: "go", Mode: "sync", Grid: "adsl", Problem: "linear", Procs: 8, Size: 30000,
			Backend: "tcp", TimeSec: 3, WallSec: 3, Converged: true},
		Result{Env: "go", Mode: "async", Grid: "adsl", Problem: "linear", Procs: 8, Size: 30000,
			Backend: "tcp", TimeSec: 1.5, WallSec: 1.5, Converged: true},
	)
	return s
}

func TestCalibrationTable(t *testing.T) {
	if sample().CalibrationTable() != "" {
		t.Fatal("sim-only set should produce no calibration table")
	}
	out := nativeSample().CalibrationTable()
	// sync mpi: 120 sim seconds over 3 wall seconds on tcp = ratio 40.0;
	// async pm2: 30 / 1.5 = 20.0. No chan cells → dashes in chan columns.
	if !strings.Contains(out, "40.0") || !strings.Contains(out, "20.0") {
		t.Fatalf("calibration ratios missing:\n%s", out)
	}
	if !strings.Contains(out, "sync mpi") || !strings.Contains(out, "async pm2") {
		t.Fatalf("calibration rows missing:\n%s", out)
	}
	if !strings.Contains(out, "tcp wall") {
		t.Fatalf("wall-clock column missing:\n%s", out)
	}
}

// A sweep run under the simulator's other name calibrates all the same.
func TestCalibrationTableTakesSimFastRows(t *testing.T) {
	s := nativeSample()
	for i := range s.Results {
		if s.Results[i].Backend == "" {
			s.Results[i].Backend = "sim-fast"
		}
	}
	out := s.CalibrationTable()
	if !strings.Contains(out, "40.0") || !strings.Contains(out, "20.0") ||
		!strings.Contains(out, "sync mpi") || !strings.Contains(out, "async pm2") {
		t.Fatalf("sim-fast rows not calibrated against their native twins:\n%s", out)
	}
	if strings.Contains(s.Table(), "sim-fast") {
		t.Fatalf("sim-fast group labelled as a backend of its own:\n%s", s.Table())
	}
}

func TestTableSeparatesBackends(t *testing.T) {
	out := nativeSample().Table()
	// Native cells group apart from their simulated twins (different time
	// units) and the group header says so.
	if !strings.Contains(out, "tcp backend (wall-clock)") {
		t.Fatalf("native group not labelled:\n%s", out)
	}
	// The native group's ratio column compares native sync vs async:
	// 3 / 1.5 = 2.00.
	if !strings.Contains(out, "2.00") {
		t.Fatalf("native ratio missing:\n%s", out)
	}
	if !strings.Contains(out, "sync go") || !strings.Contains(out, "async go") {
		t.Fatalf("native version rows missing:\n%s", out)
	}
}

func TestWallSecRoundTrips(t *testing.T) {
	s := nativeSample()
	path := filepath.Join(t.TempDir(), "BENCH_native_test.json")
	if err := WriteFile(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := got.Lookup("go/async/adsl/linear/p8/n30000/static/tcp")
	if !ok || r.WallSec != 1.5 || r.Backend != "tcp" {
		t.Fatalf("native result did not round-trip: %+v, %v", r, ok)
	}
}

func TestRegressions(t *testing.T) {
	base, cur := sample(), sample()
	if v := Regressions(base, cur, 0.01); len(v) != 0 {
		t.Fatalf("identical sets flagged: %v", v)
	}
	cur.Results[1].TimeSec *= 1.10
	cur.Results[0].Converged = false
	base.Results = append(base.Results, Result{Env: "madmpi", Mode: "async", Grid: "adsl",
		Problem: "linear", Procs: 8, Size: 30000, TimeSec: 35})
	v := Regressions(base, cur, 5)
	if len(v) != 3 {
		t.Fatalf("want 3 violations (time, outcome, missing), got %d: %v", len(v), v)
	}
}

// Protocol counters are exact on every simulated row, whichever of the
// simulator's two names the baseline was written under, and never gate a
// native row.
func TestRegressionsGateProtocolCounters(t *testing.T) {
	for _, backend := range []string{"", "sim", "sim-fast"} {
		base, cur := sample(), sample()
		base.Results[1].Backend, cur.Results[1].Backend = backend, backend
		cur.Results[1].Heartbeats += 2
		v := Regressions(base, cur, 100)
		if len(v) != 1 || !strings.Contains(v[0], "protocol counters hb=") {
			t.Errorf("backend %q: heartbeat drift not gated: %v", backend, v)
		}
	}
	base, cur := nativeSample(), nativeSample()
	cur.Results[3].StopRebroadcasts++
	if v := Regressions(base, cur, 100); len(v) != 0 {
		t.Errorf("native cell gated on protocol counters: %v", v)
	}
}

func TestRegressionsGateFlags(t *testing.T) {
	base, cur := sample(), sample()
	cur.Results[1].Flags = "oscillation"
	v := Regressions(base, cur, 100)
	if len(v) != 1 || !strings.Contains(v[0], `red flags "oscillation"`) {
		t.Fatalf("flag drift not gated: %v", v)
	}
	// A sim-fast cell gates identically: it is the simulator under its
	// other name.
	base.Results[1].Backend = "sim-fast"
	cur.Results[1].Backend = "sim-fast"
	if v := Regressions(base, cur, 100); len(v) != 1 {
		t.Fatalf("sim-fast flag drift not gated: %v", v)
	}
	// A native cell never gates on flags: wall-clock trajectories are not
	// deterministic.
	base.Results[1].Backend = "tcp"
	cur.Results[1].Backend = "tcp"
	if v := Regressions(base, cur, 100); len(v) != 0 {
		t.Fatalf("native cell gated on flags: %v", v)
	}
}

func TestFlagsTable(t *testing.T) {
	s := sample()
	if out := s.FlagsTable(); out != "" {
		t.Fatalf("clean set rendered a flags table:\n%s", out)
	}
	s.Results[1].Flags = "oscillation,plateau"
	out := s.FlagsTable()
	if !strings.Contains(out, "pm2/async/adsl") || !strings.Contains(out, "oscillation,plateau") {
		t.Fatalf("flags table lacks the flagged cell:\n%s", out)
	}
	if strings.Contains(out, "mpi/sync/adsl") {
		t.Fatalf("flags table lists a clean cell:\n%s", out)
	}
}

func TestDiff(t *testing.T) {
	base := sample()
	cur := sample()
	cur.Results[1].TimeSec = 15 // async PM2 got 2x faster
	cur.Results = append(cur.Results, Result{
		Env: "omniorb", Mode: "async", Grid: "adsl", Problem: "linear", Procs: 8, Size: 30000, TimeSec: 40,
	})
	base.Results = append(base.Results, Result{
		Env: "madmpi", Mode: "async", Grid: "adsl", Problem: "linear", Procs: 8, Size: 30000, TimeSec: 35,
	})
	out := Diff(base, cur)
	if !strings.Contains(out, "-50.0%") {
		t.Fatalf("diff lacks the time delta:\n%s", out)
	}
	if !strings.Contains(out, "only in current run: omniorb/") {
		t.Fatalf("diff lacks added cells:\n%s", out)
	}
	if !strings.Contains(out, "only in baseline: madmpi/") {
		t.Fatalf("diff lacks removed cells:\n%s", out)
	}
}

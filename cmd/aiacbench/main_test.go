package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"aiac/internal/report"
)

// build compiles the command into a fresh directory and returns the
// binary and the directory.
func build(t *testing.T) (bin, dir string) {
	t.Helper()
	dir = t.TempDir()
	bin = filepath.Join(dir, "aiacbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin, dir
}

// TestFlagChecks drives the built command through the argument errors it
// must catch before any cell runs: each exits 2 and says why.
func TestFlagChecks(t *testing.T) {
	bin, dir := build(t)
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	empty := write("empty.json", `{"schema": 4, "results": []}`)
	elsewhere := write("elsewhere.json", `{"schema": 4, "results": [{"env": "pm2", "mode": "async", "grid": "adsl", "problem": "chem", "procs": 4, "size": 8}]}`)
	schema1 := write("schema1.json", `{"schema": 1, "command": "aiacbench -o schema1.json", "results": []}`)
	const key = "pm2/async/local/linear/p4/n600/static/sim"

	for _, tc := range []struct {
		args string
		want string // in stderr
	}{
		{"-table 2", "flag provided but not defined: -table"},
		{"-figure 3", "flag provided but not defined: -figure"},
		{"-all", "flag provided but not defined: -all"},
		{"-paper nosuch", `unknown paper preset "nosuch" (known: table2, table3, figure3)`},
		{"-procs 0", `bad procs value "0": want a positive integer`},
		{"-n -5", `bad size value "-5": want a positive integer`},
		{"-reps 0", `bad reps value "0": want a positive integer`},
		{"-reps -1", `bad reps value "-1": want a positive integer`},
		{"-workers 0", `bad workers value "0": want a positive integer`},
		{"-env corba", `unknown environment "corba"`},
		{"-env mpi -mode async", "no runnable cells"},
		{"-faildelta 5", "-faildelta needs -baseline"},
		{"-baseline " + filepath.Join(dir, "missing.json"), "no such file"},
		{"-baseline " + schema1, "regenerate it with `aiacbench -o schema1.json`"},
		{"-baseline " + empty + " -faildelta 0.5", "would pass vacuously: the baseline holds no results"},
		{"-baseline " + elsewhere + " -faildelta 0.5", "would pass vacuously: the baseline shares no cell with this run"},
		{"-trend . -paper table2", "-paper has no effect with -trend"},
		{"-trend . -scenario flaky-adsl", "-scenario has no effect with -trend"},
		{"-operator dia", "flag provided but not defined: -operator"},
		{"-problem linear,chem -n 1500", "run chem and linear as two sweeps"},
		{"-paper table3 -problem chem,linear -n 12", "a chem cell's size is its grid side"},
		// The paper has two test problems; no other is accepted.
		{"-problem gmres", `unknown problem "gmres" (known: linear, chem)`},
		{"-problem linear,newton", `unknown problem "newton" (known: linear, chem)`},
		{"pm2/async/local/gmres/p8/n4000/static/sim", `unknown problem "gmres" (known: linear, chem)`},
		{"-retries 2", "flag provided but not defined: -retries"},
		{"-width 120", "flag provided but not defined: -width"},
		// With cell keys only the spec, seed, guard and view flags apply.
		{"-env pm2 " + key, "-env has no effect with cell keys"},
		{"-grid local " + key, "-grid has no effect with cell keys"},
		{"-n 1500 " + key, "-n has no effect with cell keys"},
		{"-reps 2 " + key, "-reps has no effect with cell keys"},
		{"-o x.json " + key, "-o has no effect with cell keys"},
		{"-resume x.jsonl " + key, "-resume has no effect with cell keys"},
		{"-baseline " + empty + " " + key, "-baseline has no effect with cell keys"},
		{"-workers 2 " + key, "-workers has no effect with cell keys"},
		{"-list " + key, "-list has no effect with cell keys"},
		{"-http 127.0.0.1:0 " + key, "-http has no effect with cell keys"},
		{"-trend . " + key, "-trend has no effect with cell keys"},
		{"-gantt", "-gantt views a run of named cells: give their keys"},
		{"-chrome t.json", "-chrome views a run of named cells: give their keys"},
		{"-critpath -grid local", "-critpath views a run of named cells: give their keys"},
		{"-metrics", "-metrics views a run of named cells: give their keys"},
		{"-critpath " + key + " " + key + " " + key, "-critpath takes one key (its attribution) or two (their diff), not 3"},
		{"-chrome t.json " + key + " " + key, "-chrome writes one cell's trace: give one key, not 2"},
		{"pm2/async/local", "want env/mode/grid/problem/pP/nN/scenario/backend"},
		{"pm2,mpi/async/local/linear/p4/n600/static/sim", "one value per component"},
		{"go/async/local/linear/p4/n600/node-churn/chan", "scenario node-churn has no native analogue"},
		{"-paper nosuch " + key, `unknown paper preset "nosuch"`},
		{"-timeout soon " + key, `invalid value "soon" for flag -timeout`},
	} {
		cmd := exec.Command(bin, strings.Fields(tc.args)...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("aiacbench %s: %v, want exit status 2\n%s", tc.args, err, out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("aiacbench %s: output lacks %q:\n%s", tc.args, tc.want, out)
		}
	}
}

// Every key a sweep lists re-runs to that sweep's answer: each cell the CI
// smoke sweep enumerates, named by its key alone, reproduces the status,
// time and iteration count of its row in the committed BENCH_smoke.json.
func TestKeysRerunSmokeRows(t *testing.T) {
	bin, _ := build(t)
	list, err := exec.Command(bin, "-list", "-grid", "local", "-scenario", "static,flaky-adsl", "-n", "1500").Output()
	if err != nil {
		t.Fatalf("-list: %v", err)
	}
	keys := strings.Fields(string(list))
	smoke, err := report.ReadFile(filepath.Join("..", "..", "BENCH_smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]report.Result)
	for _, r := range smoke.Results {
		rows[r.Key()] = r
	}
	if len(keys) != len(rows) {
		t.Fatalf("-list prints %d keys, BENCH_smoke.json holds %d rows", len(keys), len(rows))
	}
	out, err := exec.Command(bin, keys...).CombinedOutput()
	if err != nil {
		t.Fatalf("aiacbench KEY…: %v\n%s", err, out)
	}
	status := make(map[string]string)
	for _, line := range strings.Split(string(out), "\n") {
		if key, _, ok := strings.Cut(line, ": "); ok {
			status[key] = line
		}
	}
	for _, key := range keys {
		r, ok := rows[key]
		if !ok {
			t.Errorf("%s: no row in BENCH_smoke.json", key)
			continue
		}
		outcome := "converged"
		switch {
		case r.Stalled:
			outcome = "STALLED"
		case !r.Converged:
			outcome = "did not converge"
		}
		want := fmt.Sprintf("%s: %s in %s (%d iters)", key, outcome, report.FmtSec(r.TimeSec), r.Iters)
		if r.Flags != "" {
			want += "  flags=" + r.Flags
		}
		if status[key] != want {
			t.Errorf("aiacbench %s printed %q, want the sweep's %q", key, status[key], want)
		}
	}
}

// The paper's Figures 1-2 are the -gantt view of two cells under the
// Table 2 preset: the SISC chart idles, the AIAC chart does not.
func TestFigureCommand(t *testing.T) {
	bin, _ := build(t)
	args := []string{"-paper", "table2", "-gantt", "mpi/sync/3site/linear/p2/n15000/static/sim", "pm2/async/3site/linear/p2/n15000/static/sim"}
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("aiacbench %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	for _, want := range []string{
		"mpi/sync/3site/linear/p2/n15000/static/sim: converged",
		"mean idle fraction: 98.8%",
		"pm2/async/3site/linear/p2/n15000/static/sim: converged",
		"mean idle fraction: 0.0%",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("aiacbench %s: output lacks %q:\n%s", strings.Join(args, " "), want, out)
		}
	}
}

// -trend reads an interrupted sweep's sidecar as its cells' rows: a
// repetition row is one run of a cell, not the cell, and is left out.
func TestTrendSkipsRepetitionRows(t *testing.T) {
	dir := t.TempDir()
	w, err := report.CreateSidecar(filepath.Join(dir, "BENCH_killed.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	done := report.Result{Env: "pm2", Mode: "async", Grid: "local", Problem: "linear", Procs: 4, Size: 600, Reps: 2, TimeSec: 1}
	cut := done
	cut.Env, cut.Reps, cut.TimeSec = "mpi", 1, 2
	for _, row := range []report.SidecarRow{
		{CacheKey: report.RepetitionKey("a", 0), Result: done},
		{CacheKey: "a", Result: done},
		{CacheKey: report.RepetitionKey("b", 0), Result: cut},
	} {
		if err := w.Append(row.CacheKey, row.Result); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	files, err := trendFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || len(files[0].results) != 1 || files[0].results[done.Key()] != done {
		t.Errorf("trend read %+v; want the finished cell's row alone", files)
	}
}

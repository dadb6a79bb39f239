package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagChecks drives the built command through the argument errors it
// must catch before any cell runs: each exits 2 and says why.
func TestFlagChecks(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "aiacbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
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
		{"-trend . -operator stencil", "-operator has no effect with -trend"},
		{"-retries 2", "flag provided but not defined: -retries"},
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

package envcore_test

// Recycled buffers must be provably unread after release. Release-poisoning
// is on for the whole envcore test binary (golden_test.go's TestMain) — every
// buffer the environment takes back is filled with NaNs — and this file holds the
// simulated cells to the results they produce without recycling: the
// goroutine engine snapshots with make and never hands a buffer back, so a
// sim-fast cell that read a released (poisoned) value could not match it.
// marcel's requests need no switch: they are always released with no thread
// and no generation.

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"testing"

	"aiac/internal/aiac"
	"aiac/internal/matrix"
)

// bothEngines runs repetition rep of c on the goroutine engine and on the
// continuation engine and fails on any difference between the two rows.
func bothEngines(t *testing.T, c matrix.Cell, spec matrix.Spec, rep int, seed int64) {
	t.Helper()
	rows := map[string]string{}
	for _, backend := range []string{"sim", "sim-fast"} {
		c.Backend = backend
		r, err := matrix.RunCellOnce(c, spec, rep, seed, 0, nil)
		if err != nil {
			t.Fatalf("%s seed %d: %v", c.Key(), seed, err)
		}
		r.Backend = ""
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		rows[backend] = string(b)
	}
	if rows["sim"] != rows["sim-fast"] {
		t.Errorf("%s seed %d: with released buffers poisoned, sim-fast no longer matches sim:\n  sim:      %s\n  sim-fast: %s",
			c.Key(), seed, rows["sim"], rows["sim-fast"])
	}
}

// The differential harness of internal/simfast, poisoned: the default
// matrix at reduced size (SIMFAST_DIFF_N overrides it, as there; CI runs
// 1500), two seeds.
func TestPoisonedDifferential(t *testing.T) {
	n := 600
	if s := os.Getenv("SIMFAST_DIFF_N"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			t.Fatalf("bad SIMFAST_DIFF_N %q: %v", s, err)
		}
		n = v
	}
	spec := matrix.DefaultSpec()
	spec.Sizes = []int{n}
	spec.Linear.MaxIters = 12000
	for _, c := range spec.Cells() {
		t.Run(fmt.Sprintf("%s-%s-%s", c.Env, c.Mode, c.Grid), func(t *testing.T) {
			t.Parallel()
			for _, seed := range []int64{0, 7} {
				bothEngines(t, c, spec, 0, seed)
			}
		})
	}
}

// A scaled copy of each simulated workload of the repo benchmark (the
// specs of benchmark/workloads.go at an eighth of their size, or less, and
// with the spinning cells capped), poisoned.
func TestPoisonedWorkloads(t *testing.T) {
	syncAsync := []aiac.Mode{aiac.Sync, aiac.Async}
	linear := matrix.LinearParams{Diags: 12, Rho: 0.85, Eps: 1e-5, MaxIters: 6000, Seed: 20040426}
	workloads := map[string]matrix.Spec{
		"adsl-spin": {
			Envs: []string{"pm2", "omniorb"}, Modes: syncAsync, Grids: []string{"adsl"},
			Problems: []string{"linear"}, Procs: []int{4}, Sizes: []int{1500},
		},
		"sync-exchange": {
			Envs: matrix.EnvNames, Modes: []aiac.Mode{aiac.Sync}, Grids: []string{"3site", "local"},
			Problems: []string{"linear"}, Procs: []int{64}, Sizes: []int{2400},
		},
		"kernel-large": {
			Envs: []string{"pm2"}, Modes: syncAsync, Grids: []string{"local"},
			Problems: []string{"linear"}, Procs: []int{2}, Sizes: []int{10000},
		},
		"grid-dynamics": {
			Envs: []string{"pm2", "omniorb"}, Modes: syncAsync, Grids: []string{"3site"},
			Problems: []string{"linear"}, Procs: []int{8}, Sizes: []int{1500},
			Scenarios: []string{"flaky-adsl", "node-churn", "lossy-wan", "diurnal-load"},
		},
	}
	for name, spec := range workloads {
		spec.Linear = linear
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, c := range spec.Cells() {
				bothEngines(t, c, spec, 0, 20040426)
			}
		})
	}
}

package matrix

import (
	"math"
	"strings"
	"testing"

	"aiac/internal/aiac"
	"aiac/internal/report"
	"aiac/internal/trace"
)

// paperVersion reports whether the cell is one of the four versions the
// paper's tables compare: the sync-mpi baseline or an asynchronous version.
func paperVersion(c Cell) bool { return c.Mode == aiac.Async || c.Env == "mpi" }

// sweepByKey runs the spec and indexes its results, failing on any cell
// that errored or did not converge.
func sweepByKey(t *testing.T, spec Spec) map[string]report.Result {
	t.Helper()
	set, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]report.Result)
	for _, r := range set.Results {
		if r.Error != "" || !r.Converged {
			t.Fatalf("%s: error %q, converged=%v", r.Key(), r.Error, r.Converged)
		}
		out[r.Key()] = r
	}
	return out
}

// asyncRatios returns sync-mpi time over each asynchronous version's time
// within one (grid, procs) group — the paper's "speed ratio" column.
func asyncRatios(t *testing.T, rs map[string]report.Result, grid string, procs int) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	var base float64
	for _, r := range rs {
		if r.Grid == grid && r.Procs == procs && r.Mode == "sync" && r.Env == "mpi" {
			base = r.TimeSec
		}
	}
	for _, r := range rs {
		if r.Grid == grid && r.Procs == procs && r.Mode == "async" {
			out[r.Env] = base / r.TimeSec
		}
	}
	if base == 0 || len(out) != 3 {
		t.Fatalf("%s p%d: baseline %v and %d async versions, want a baseline and 3", grid, procs, base, len(out))
	}
	return out
}

// TestPaperPresets pins the paper's experiments as they run since they
// became sweeps: which cells each preset enumerates, its Table 1
// parameters, the orderings the paper reports, and — at full size, against
// the numbers internal/bench's own run loop printed at its last commit —
// the rows themselves.
func TestPaperPresets(t *testing.T) {
	type row struct {
		timeSec float64
		iters   int
	}
	cases := []struct {
		name   string
		groups int      // (grid, procs) blocks of the paper's table or figure
		params []string // what the Table 1 block must say
		shape  func(t *testing.T, spec Spec)
		full   map[string]row // the four versions' rows at full size
	}{
		{
			name: "table2", groups: 1,
			params: []string{"120000 x 120000", "30 sub-diagonals", "0.88"},
			full: map[string]row{
				"mpi/sync/3site/linear/p12/n120000/static/sim":      {27.245838, 588},
				"pm2/async/3site/linear/p12/n120000/static/sim":     {11.482622, 165366},
				"madmpi/async/3site/linear/p12/n120000/static/sim":  {15.069433, 218889},
				"omniorb/async/3site/linear/p12/n120000/static/sim": {11.494388, 162146},
			},
		},
		{
			name: "table3", groups: 2,
			params: []string{"48 x 48", "time interval                    540s", "time step                        180s"},
			// Two time steps keep it quick: async beats sync on both grids,
			// and the ADSL grid's speed ratios exceed the Ethernet grid's.
			shape: func(t *testing.T, spec Spec) {
				spec.Chem.HorizonS = 360
				rs := sweepByKey(t, spec)
				ethernet, adsl := asyncRatios(t, rs, "3site", 12), asyncRatios(t, rs, "adsl", 12)
				for env, r := range ethernet {
					if r <= 1 || adsl[env] <= 1 {
						t.Errorf("async %s not faster than sync mpi: ratio %.2f on 3site, %.2f on adsl", env, r, adsl[env])
					}
					if adsl[env] <= r {
						t.Errorf("async %s: adsl ratio %.2f not above the 3site ratio %.2f", env, adsl[env], r)
					}
				}
			},
			full: map[string]row{
				"mpi/sync/3site/chem/p12/n48/static/sim":      {29.167177, 132},
				"pm2/async/3site/chem/p12/n48/static/sim":     {0.673672, 9395},
				"madmpi/async/3site/chem/p12/n48/static/sim":  {0.677840, 9215},
				"omniorb/async/3site/chem/p12/n48/static/sim": {0.684025, 9393},
				"mpi/sync/adsl/chem/p12/n48/static/sim":       {127.906952, 132},
				"pm2/async/adsl/chem/p12/n48/static/sim":      {2.518361, 36207},
				"madmpi/async/adsl/chem/p12/n48/static/sim":   {2.558408, 37091},
				"omniorb/async/adsl/chem/p12/n48/static/sim":  {2.644173, 37068},
			},
		},
		{
			name: "figure3", groups: 7,
			params: []string{"100 x 100", "time interval                    180s"},
			// The two ends of the curves: the asynchronous versions' lead
			// over sync mpi grows with the processor count.
			shape: func(t *testing.T, spec Spec) {
				if testing.Short() {
					t.Skip("slow")
				}
				spec.Procs = []int{10, 40}
				rs := sweepByKey(t, spec)
				few, many := asyncRatios(t, rs, "local", 10), asyncRatios(t, rs, "local", 40)
				for env, r := range many {
					if r <= 1 || r <= few[env] {
						t.Errorf("async %s: ratio %.2f at 40 procs, %.2f at 10; want it above 1 and growing", env, r, few[env])
					}
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := Preset(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			// The paper's rows, in the paper's order, lead and close every
			// block: the sync-mpi baseline first, then (after the threaded
			// environments' sync rows) async pm2, madmpi, omniorb.
			var versions []string
			for _, c := range spec.Cells() {
				if paperVersion(c) {
					versions = append(versions, c.Mode.String()+" "+c.Env)
				}
			}
			block := "sync mpi,async pm2,async madmpi,async omniorb"
			if got := strings.Join(versions, ","); got != strings.TrimSuffix(strings.Repeat(block+",", tc.groups), ",") {
				t.Errorf("paper versions enumerate as %s; want %d × %s", got, tc.groups, block)
			}
			if c := spec.Cells()[0]; c.Env != "mpi" || c.Mode != aiac.Sync {
				t.Errorf("first cell %s, want the sync-mpi baseline", c.Key())
			}
			params := spec.Parameters()
			for _, want := range tc.params {
				if !strings.Contains(params, want) {
					t.Errorf("Table 1 block lacks %q:\n%s", want, params)
				}
			}
			if tc.shape != nil {
				t.Run("shape", func(t *testing.T) { tc.shape(t, spec) })
			}
			if tc.full == nil {
				return
			}
			t.Run("full-size", func(t *testing.T) {
				if testing.Short() {
					t.Skip("slow")
				}
				rs := sweepByKey(t, spec)
				for key, want := range tc.full {
					got := rs[key]
					if math.Abs(got.TimeSec-want.timeSec) > 1e-6 || got.Iters != want.iters {
						t.Errorf("%s: %.6f s, %d iterations; want %.6f s, %d", key, got.TimeSec, got.Iters, want.timeSec, want.iters)
					}
				}
			})
		})
	}
	if _, err := Preset("table9"); err == nil || !strings.Contains(err.Error(), strings.Join(PresetNames, ", ")) {
		t.Errorf("unknown preset: error %v, want one listing the presets", err)
	}

	// Table 4: each multi-threaded environment once per problem kind, and
	// the two kinds deploy differently.
	for _, problem := range []string{"linear", "chem"} {
		out := ThreadPolicies(problem)
		for _, env := range []string{"pm2", "mpi/mad", "omniorb4"} {
			if strings.Count(out, env) != 1 {
				t.Errorf("Table 4 (%s) should list %s once:\n%s", problem, env, out)
			}
		}
	}
	if ThreadPolicies("linear") == ThreadPolicies("chem") {
		t.Error("Table 4 lists the same thread policies for the sparse and the non-linear problem")
	}

	// Figures 1-2, the load-bearing contrast: the SISC trace has
	// substantial idle time, the AIAC trace essentially none.
	sisc, async, spec := FigureCells()
	idle := func(c Cell) float64 {
		tr := trace.New()
		if _, err := RunCellOnce(c, spec, 0, 0, 0, tr); err != nil {
			t.Fatal(err)
		}
		if len(tr.Msgs) == 0 {
			t.Errorf("%s: trace recorded no messages", c.Key())
		}
		return tr.MeanIdleFraction()
	}
	if f := idle(sisc); f < 0.2 {
		t.Errorf("SISC idle fraction = %v, want substantial idle (Figure 1)", f)
	}
	if f := idle(async); f > 0.01 {
		t.Errorf("AIAC idle fraction = %v, want ~0 (Figure 2)", f)
	}
}

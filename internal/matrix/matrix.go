// Package matrix enumerates and schedules the paper's experiment matrix:
// every measurement of the evaluation (§5) is one *cell* — an (environment,
// mode, grid, problem, procs, size, scenario, backend) combination — and a
// sweep is the set of cells selected by a Spec, executed across a bounded
// pool of concurrent discrete-event simulations (plus natively executed
// cells, see below) and streamed into internal/report.
//
// Six of the axes are the ones the paper varies; the seventh — scenario —
// goes beyond it (internal/scenario): a scripted grid-dynamics timeline
// (link flaps, background load, node churn, message loss) applied to the
// cell's simulation, with "static" reproducing the paper's original grids.
// The eighth — backend — selects what executes the cell: "sim" (and its
// accepted synonym "sim-fast") runs the discrete-event simulation, while
// "chan" and "tcp" run
// the solve natively (internal/backend) on goroutine ranks over an
// in-process or TCP-loopback transport shaped like the cell's grid,
// measuring wall-clock time on this host. Native cells use the pseudo-
// environment "go" (the Go runtime is their middleware — §6's feature
// list, provided natively), cover every problem, and run the scenarios
// with a steady-state transport analogue (static, flaky-adsl, lossy-wan);
// they execute serially after the simulated pool so concurrent cells
// cannot oversubscribe the host and corrupt each other's wall clocks.
// Both drivers run the same protocol core (internal/protocol), so a
// native cell and its simulated twin differ only in runtime, never in
// algorithm.
//
// The paper's axes:
//
//   - environment: sync-mpi, PM2, MPICH/Madeleine, OmniORB (§2-3, Table 4);
//   - mode: AIAC asynchronous iterations versus the synchronous SISC
//     baseline (§4.1);
//   - grid: the three platforms of §5.1 (3-site Ethernet, 4-site with an
//     ADSL uplink, local heterogeneous cluster) plus the Myrinet-enabled
//     local grid of §5.3;
//   - problem: the sparse linear system and the non-linear chemical
//     problem of §4.2;
//   - procs and size: the scaling axes of Tables 2-3 and Figure 3.
//
// One combination is structurally impossible and is skipped during
// enumeration: asynchronous mode on the mono-threaded MPI environment,
// which has no receive machinery outside its blocking exchange — exactly
// the limitation that motivates the paper's comparison (§2).
//
// Every cell runs in its own des.Simulator, so cells share no state and a
// sweep's results are identical whatever the worker count.
//
// This is the repo's one experiment runner: the paper's own Tables 2-3 and
// Figure 3 are named Specs (Preset), Figures 1-2 two of their cells
// (FigureCells), and Tables 1 and 4 listings of a Spec's parameters and of
// the environments NewEnv deploys (Spec.Parameters, ThreadPolicies).
package matrix

import (
	"fmt"
	"strconv"
	"strings"

	"aiac/internal/aiac"
	"aiac/internal/backend"
	"aiac/internal/cluster"
	"aiac/internal/des"
	"aiac/internal/env/envcore"
	"aiac/internal/env/madmpi"
	"aiac/internal/env/mpi"
	"aiac/internal/env/orb"
	"aiac/internal/env/pm2"
	"aiac/internal/report"
	"aiac/internal/scenario"
	"aiac/internal/trace"
)

// The canonical axis values, in presentation order.
var (
	// EnvNames lists the middleware environments (§2-3).
	EnvNames = []string{"mpi", "pm2", "madmpi", "omniorb"}
	// GridNames lists the simulated platforms (§5.1, §5.3).
	GridNames = []string{"3site", "adsl", "local", "multiproto"}
	// ProblemNames lists the test problems: the paper's two (§4.2) plus
	// the two local-solver variants (block-GMRES multisplitting of the
	// sparse system, strip-Newton on the non-linear reaction problem).
	ProblemNames = []string{"linear", "gmres", "newton", "chem"}
	// ScenarioNames lists the grid-dynamics presets (internal/scenario),
	// the static grid first.
	ScenarioNames = scenario.Names()
	// BackendNames lists the execution backends: the simulator first
	// ("sim-fast" is a synonym of "sim", kept so that cell keys, sidecars
	// and baselines written under that name stay valid), then the native
	// transports (internal/backend).
	BackendNames = []string{"sim", "sim-fast", "chan", "tcp"}
	// Modes lists the iteration schemes, baseline first.
	Modes = []aiac.Mode{aiac.Sync, aiac.Async}
)

// NativeEnv is the pseudo-environment of natively executed cells: their
// middleware is the Go runtime itself.
const NativeEnv = "go"

// SimulatedBackend reports whether the named backend executes cells as
// discrete-event simulations ("sim" and its synonym "sim-fast") rather than
// natively on this host's wall clock.
func SimulatedBackend(name string) bool {
	return name == "sim" || name == "sim-fast" || name == ""
}

// Cell is one experiment of the matrix.
type Cell struct {
	Env     string
	Mode    aiac.Mode
	Grid    string
	Problem string
	Procs   int
	// Size is the problem size: unknowns for the linear system, the
	// square discretisation-grid edge for the chemical problem.
	Size int
	// Scenario names the grid-dynamics preset applied to the cell's
	// simulation ("" means static).
	Scenario string
	// Backend selects the execution backend ("" means sim).
	Backend string
}

// Key identifies the cell: env/mode/grid/problem/pP/nN/scenario/backend.
// It delegates to report.Result.Key so a cell and its result always share
// one identity.
func (c Cell) Key() string {
	return report.Result{
		Env: c.Env, Mode: c.Mode.String(), Grid: c.Grid,
		Problem: c.Problem, Procs: c.Procs, Size: c.Size, Scenario: c.Scenario,
		Backend: c.Backend,
	}.Key()
}

// Supported reports whether the (environment, mode) combination can run.
// Asynchronous iterations need receive threads; the mono-threaded MPI
// environment has none (§2), so async×mpi is the one unsupported pair.
func Supported(env string, mode aiac.Mode) bool {
	return !(env == "mpi" && mode == aiac.Async)
}

// ParseKey parses a cell key exactly as Cell.Key / report.Result.Key
// prints it — env/mode/grid/problem/pP/nN/scenario/backend — back into a
// Cell, validating every axis value. It is the inverse that lets any cell
// named in a sweep's output be re-run verbatim (aiactrace -explain).
func ParseKey(key string) (Cell, error) {
	parts := strings.Split(key, "/")
	if len(parts) != 8 {
		return Cell{}, fmt.Errorf("cell key %q: want env/mode/grid/problem/pP/nN/scenario/backend", key)
	}
	var c Cell
	bad := func(axis string, err error) (Cell, error) {
		return Cell{}, fmt.Errorf("cell key %q: %s: %v", key, axis, err)
	}
	envs, err := ParseEnvs(parts[0])
	if err != nil {
		return bad("env", err)
	}
	modes, err := ParseModes(parts[1])
	if err != nil {
		return bad("mode", err)
	}
	grids, err := ParseGrids(parts[2])
	if err != nil {
		return bad("grid", err)
	}
	probs, err := ParseProblems(parts[3])
	if err != nil {
		return bad("problem", err)
	}
	procs, err := strconv.Atoi(strings.TrimPrefix(parts[4], "p"))
	if err != nil || !strings.HasPrefix(parts[4], "p") || procs <= 0 {
		return Cell{}, fmt.Errorf("cell key %q: procs component %q: want pN", key, parts[4])
	}
	size, err := strconv.Atoi(strings.TrimPrefix(parts[5], "n"))
	if err != nil || !strings.HasPrefix(parts[5], "n") || size <= 0 {
		return Cell{}, fmt.Errorf("cell key %q: size component %q: want nN", key, parts[5])
	}
	scens, err := ParseScenarios(parts[6])
	if err != nil {
		return bad("scenario", err)
	}
	backends, err := ParseBackends(parts[7])
	if err != nil {
		return bad("backend", err)
	}
	c = Cell{
		Env: envs[0], Mode: modes[0], Grid: grids[0], Problem: probs[0],
		Procs: procs, Size: size, Scenario: scens[0], Backend: backends[0],
	}
	if !Supported(c.Env, c.Mode) {
		return Cell{}, fmt.Errorf("cell key %q: %s does not support %s mode", key, c.Env, c.Mode)
	}
	return c, nil
}

// LinearParams tunes the sparse linear problem cells (§4.2, Table 1).
type LinearParams struct {
	Diags    int     // off-diagonal bands
	Rho      float64 // diagonal-dominance bound on the spectral radius
	Eps      float64 // convergence threshold (Equ. 5)
	MaxIters int     // per-processor iteration cap
	Seed     int64   // matrix generator seed; repetition r uses Seed+r
	// Operator selects the matrix storage strategy: "" or "dia"
	// materializes every band (sparse.DIA, the measured kernels of
	// KERNELS.md); "stencil" iterates the implicit operator
	// (sparse.Stencil) in O(bands) matrix memory — same parameter space,
	// different matrix, for sizes where assembly no longer fits.
	Operator string
}

// ChemParams tunes the non-linear chemical problem cells (§4.2, Table 1).
type ChemParams struct {
	StepS    float64 // time step (s)
	HorizonS float64 // simulated interval (s)
	Eps      float64 // Newton convergence threshold
	GmresTol float64 // inner GMRES tolerance
}

// NewtonParams tunes the standalone non-linear reaction problem cells
// (problems.Reaction: strip-local Newton with manufactured truth).
type NewtonParams struct {
	C        float64 // reaction strength
	Eps      float64 // convergence threshold on the scaled Newton step
	MaxIters int     // per-processor iteration cap
	Seed     int64   // manufactured-solution seed; repetition r uses Seed+r
}

// Spec selects the cells of a sweep. Empty axis slices mean "all values"
// (for Sizes: the per-problem default).
type Spec struct {
	Envs      []string
	Modes     []aiac.Mode
	Grids     []string
	Problems  []string
	Procs     []int
	Sizes     []int
	Scenarios []string
	// Backends selects the execution backends (empty = sim only; native
	// backends must be asked for — they spend real wall time per cell).
	Backends []string

	Linear LinearParams
	Chem   ChemParams
	Newton NewtonParams
}

// DefaultSpec sweeps the full env×mode×grid matrix of the paper's
// measurement grids for the sparse linear problem. The sizes and the
// convergence threshold are tuned so that *every* cell — including the
// asynchronous solves behind the ADSL uplink, whose fast ranks spin
// through hundreds of thousands of iterations while data crawls over the
// 128 kb/s link — detects convergence within roughly a minute of host time
// per cell, keeping the full sweep interactive while preserving the
// paper's qualitative shape (async ≫ sync on the ADSL grid).
func DefaultSpec() Spec {
	return Spec{
		Envs:      EnvNames,
		Modes:     Modes,
		Grids:     []string{"3site", "adsl", "local"},
		Problems:  []string{"linear"},
		Procs:     []int{8},
		Scenarios: []string{"static"},
		Backends:  []string{"sim"},
		Linear:    LinearParams{Diags: 12, Rho: 0.85, Eps: 1e-5, MaxIters: 3000000, Seed: 20040426},
		Chem:      ChemParams{StepS: 180, HorizonS: 540, Eps: 1e-6, GmresTol: 1e-6},
		Newton:    NewtonParams{C: 1, Eps: 1e-9, MaxIters: 3000000, Seed: 20040426},
	}
}

// DefaultSizeFor is the per-problem problem size used when Spec.Sizes is
// empty: big enough that exchange messages leave the small-message regime,
// small enough for interactive sweeps. The block-GMRES variant runs a full
// inner solve per outer iteration, so its default is smaller than the
// gradient-iterated system's.
func DefaultSizeFor(problem string) int {
	switch problem {
	case "chem":
		return 36
	case "gmres":
		return 4000
	case "newton":
		return 6000
	}
	return 12000
}

// Cells enumerates the spec's cells in deterministic presentation order:
// grouping axes (problem, grid, procs, size, scenario, backend) outermost
// — the static scenario first, so every dynamic group follows the baseline
// it is compared against, and the simulator before the native backends, so
// native groups follow their simulated twins — then the versions (mode ×
// env, baseline first), the row order of the paper's tables. Unsupported
// (env, mode) pairs are skipped. Native backends enumerate one version per
// mode under the pseudo-environment "go" (a native run has no simulated
// middleware to vary), for every problem, under the scenarios with a
// steady-state transport analogue (backend.NativeScenarioNames: static,
// flaky-adsl, lossy-wan); the scripted CPU/crash presets stay
// simulator-only.
func (s Spec) Cells() []Cell {
	s = s.withDefaults()
	var cells []Cell
	for _, prob := range s.Problems {
		sizes := s.Sizes
		if len(sizes) == 0 {
			sizes = []int{DefaultSizeFor(prob)}
		}
		for _, grid := range s.Grids {
			for _, procs := range s.Procs {
				for _, size := range sizes {
					for _, scen := range s.Scenarios {
						for _, bk := range s.Backends {
							if !SimulatedBackend(bk) && !backend.NativeScenario(scen) {
								continue
							}
							for _, mode := range s.Modes {
								if !SimulatedBackend(bk) {
									cells = append(cells, Cell{
										Env: NativeEnv, Mode: mode, Grid: grid,
										Problem: prob, Procs: procs, Size: size,
										Scenario: scen, Backend: bk,
									})
									continue
								}
								for _, env := range s.Envs {
									if !Supported(env, mode) {
										continue
									}
									cells = append(cells, Cell{
										Env: env, Mode: mode, Grid: grid,
										Problem: prob, Procs: procs, Size: size,
										Scenario: scen, Backend: bk,
									})
								}
							}
						}
					}
				}
			}
		}
	}
	return cells
}

func (s Spec) withDefaults() Spec {
	d := DefaultSpec()
	if len(s.Envs) == 0 {
		s.Envs = EnvNames
	}
	if len(s.Modes) == 0 {
		s.Modes = Modes
	}
	if len(s.Grids) == 0 {
		s.Grids = GridNames
	}
	if len(s.Problems) == 0 {
		s.Problems = ProblemNames
	}
	if len(s.Procs) == 0 {
		s.Procs = []int{8}
	}
	if len(s.Scenarios) == 0 {
		s.Scenarios = []string{"static"}
	}
	if len(s.Backends) == 0 {
		s.Backends = []string{"sim"}
	}
	// The operator axis rides along: a spec that only picked an operator
	// still gets the default linear parameters.
	if s.Linear == (LinearParams{Operator: s.Linear.Operator}) {
		op := s.Linear.Operator
		s.Linear = d.Linear
		s.Linear.Operator = op
	}
	if s.Chem == (ChemParams{}) {
		s.Chem = d.Chem
	}
	if s.Newton == (NewtonParams{}) {
		s.Newton = d.Newton
	}
	return s
}

// --- Cell-spec parsing, shared by cmd/aiacbench and cmd/aiacrun ---

// parseAxis splits a comma-separated filter and validates every element
// against the axis's known values. An empty filter selects all values.
func parseAxis(axis, csv string, known []string) ([]string, error) {
	if strings.TrimSpace(csv) == "" {
		return append([]string(nil), known...), nil
	}
	var out []string
	for _, f := range strings.Split(csv, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		ok := false
		for _, k := range known {
			if f == k {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("unknown %s %q (known: %s)", axis, f, strings.Join(known, ", "))
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty %s filter %q", axis, csv)
	}
	return out, nil
}

// ParseEnvs parses an environment filter ("pm2,mpi"; "" = all).
func ParseEnvs(csv string) ([]string, error) { return parseAxis("environment", csv, EnvNames) }

// ParseGrids parses a grid filter ("3site,adsl"; "" = all).
func ParseGrids(csv string) ([]string, error) { return parseAxis("grid", csv, GridNames) }

// ParseProblems parses a problem filter ("linear"; "" = all).
func ParseProblems(csv string) ([]string, error) { return parseAxis("problem", csv, ProblemNames) }

// ParseScenarios parses a grid-dynamics scenario filter
// ("static,flaky-adsl"; "" = all presets).
func ParseScenarios(csv string) ([]string, error) { return parseAxis("scenario", csv, ScenarioNames) }

// ParseBackends parses an execution-backend filter ("sim,chan,tcp").
// Unlike the other axes an empty filter selects only the simulator:
// native backends spend real wall time per cell and must be asked for.
func ParseBackends(csv string) ([]string, error) {
	if strings.TrimSpace(csv) == "" {
		return []string{"sim"}, nil
	}
	return parseAxis("backend", csv, BackendNames)
}

// ParseOperator validates a linear-operator selection ("dia" or
// "stencil"; "" = dia). It is a single value, not a filter axis: the
// operator changes which matrix the linear cells iterate, so a sweep
// holds it fixed and comparisons across operators are separate sweeps.
func ParseOperator(s string) (string, error) {
	switch strings.TrimSpace(s) {
	case "", "dia":
		return "dia", nil
	case "stencil":
		return "stencil", nil
	default:
		return "", fmt.Errorf("bad operator %q: want dia or stencil", s)
	}
}

// ParseModes parses a mode filter ("async,sync"; "" = both, baseline
// first).
func ParseModes(csv string) ([]aiac.Mode, error) {
	names, err := parseAxis("mode", csv, []string{"sync", "async"})
	if err != nil {
		return nil, err
	}
	var out []aiac.Mode
	for _, n := range names {
		if n == "sync" {
			out = append(out, aiac.Sync)
		} else {
			out = append(out, aiac.Async)
		}
	}
	return out, nil
}

// ParseInts parses a comma-separated positive integer list ("8,12,16").
// An empty string returns nil (axis default).
func ParseInts(axis, csv string) ([]int, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(csv, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad %s value %q: want a positive integer", axis, f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty %s list %q", axis, csv)
	}
	return out, nil
}

// NewGrid builds the named simulated platform with n machines.
func NewGrid(sim *des.Simulator, name string, n int) (*cluster.Grid, error) {
	switch name {
	case "3site":
		return cluster.ThreeSiteEthernet(sim, n), nil
	case "adsl":
		return cluster.FourSiteADSL(sim, n), nil
	case "local":
		return cluster.LocalHeterogeneous(sim, n), nil
	case "multiproto":
		return cluster.LocalMultiProtocol(sim, n), nil
	default:
		return nil, fmt.Errorf("unknown grid %q (known: %s)", name, strings.Join(GridNames, ", "))
	}
}

// NewEnv deploys the named environment over the grid, with the Table 4
// thread configuration matching the problem kind (sparse: all-to-all
// exchange; otherwise the neighbour-exchange non-linear configuration).
// The trailing options are ignored; the parameter stays only because the
// files under benchmark/ pass envcore.WithEventLoop() (ROADMAP item 8(b)).
func NewEnv(grid *cluster.Grid, name string, sparse bool, tr *trace.Collector, _ ...envcore.Opt) (aiac.Env, error) {
	switch name {
	case "mpi":
		return mpi.New(grid, tr)
	case "pm2":
		if sparse {
			return pm2.New(grid, pm2.Sparse, tr)
		}
		return pm2.New(grid, pm2.NonLinear, tr)
	case "madmpi":
		if sparse {
			return madmpi.New(grid, madmpi.Sparse, tr)
		}
		return madmpi.New(grid, madmpi.NonLinear, tr)
	case "omniorb":
		if sparse {
			return orb.New(grid, orb.Sparse, tr)
		}
		return orb.New(grid, orb.NonLinear, tr)
	default:
		return nil, fmt.Errorf("unknown environment %q (known: %s)", name, strings.Join(EnvNames, ", "))
	}
}

// ThreadPolicies lists the send/receive thread configuration every
// multi-threaded environment deploys for the named problem — the paper's
// Table 4.
func ThreadPolicies(problem string) string {
	grid := cluster.LocalHeterogeneous(des.New(), 3)
	var b strings.Builder
	for _, name := range EnvNames[1:] { // mpi is mono-threaded
		env, err := NewEnv(grid, name, sparseExchange(problem), nil)
		if err != nil {
			panic(err)
		}
		fmt.Fprintf(&b, "  %-16s %s\n", env.Name(), env.ThreadPolicy())
	}
	return b.String()
}

// sparseExchange reports whether the problem's environments deploy in the
// all-to-all sparse configuration of Table 4 (the gradient-iterated linear
// system) rather than the neighbour-exchange one.
func sparseExchange(problem string) bool { return problem == "linear" }

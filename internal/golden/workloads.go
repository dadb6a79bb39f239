package golden

import (
	"aiac/internal/aiac"
	"aiac/internal/matrix"
)

// Seed is the seed the workloads' rows are recorded at: the matrix
// generator's seed and the network-jitter stream of repetition 0.
const Seed = 20040426

// Workload is a simulated benchmark workload at full size: its cells, the
// repetitions each aggregates, and the reference cell run once traced.
type Workload struct {
	Name string
	Reps int
	Spec matrix.Spec
	Ref  func(matrix.Cell) bool
}

// spec is a linear-problem sweep of the workloads' parameters.
func spec(envs []string, modes []aiac.Mode, grids []string, procs, size int, scenarios ...string) matrix.Spec {
	return matrix.Spec{Envs: envs, Modes: modes, Grids: grids, Problems: []string{"linear"},
		Procs: []int{procs}, Sizes: []int{size}, Scenarios: scenarios,
		Linear: matrix.LinearParams{Diags: 12, Rho: 0.85, Eps: 1e-5, MaxIters: 3000000, Seed: Seed}}
}

var pm2Async = func(c matrix.Cell) bool { return c.Env == "pm2" && c.Mode == aiac.Async }

// Workloads are the four simulated workloads, in the benchmark's order.
var Workloads = []Workload{
	{"adsl-spin", 1, spec([]string{"pm2", "omniorb"}, matrix.Modes, []string{"adsl"}, 4, 12000), pm2Async},
	{"sync-exchange", 2, spec(matrix.EnvNames, []aiac.Mode{aiac.Sync}, []string{"3site", "local"}, 64, 19200),
		func(c matrix.Cell) bool { return c.Env == "omniorb" && c.Grid == "3site" }},
	{"kernel-large", 5, spec([]string{"pm2"}, matrix.Modes, []string{"local"}, 2, 250000), pm2Async},
	{"grid-dynamics", 2, spec([]string{"pm2", "omniorb"}, matrix.Modes, []string{"3site"}, 8, 12000,
		"flaky-adsl", "node-churn", "lossy-wan", "diurnal-load"),
		func(c matrix.Cell) bool { return pm2Async(c) && c.Scenario == "node-churn" }},
}

package main

import (
	"aiac/internal/aiac"
	"aiac/internal/matrix"
)

// defaultSeed is the seed the golden digests are recorded at, and the
// matrix generator's seed at every --seed.
const defaultSeed = 20040426

// workload is one named set of inputs: a sweep spec generated from the seed
// and the reference cell the traced pass stages from outside.
type workload struct {
	name string
	// why says which layers the workload was chosen to stress; it is the
	// text of BENCHMARK.json's "why" and of the README's workload table.
	why string
	// reps is matrix.Options.Reps for the sweep.
	reps int
	// native marks the workload whose cells run on the wall clock
	// (internal/backend over internal/transport): its iteration counts are
	// not deterministic, so it has no golden digests.
	native bool
	// base is the spec at full size; spec() derives the scaled one.
	base matrix.Spec
	// ref selects the reference cell among base.Cells().
	ref func(matrix.Cell) bool
}

// spec is the workload's sweep spec; div (1 outside tests) shrinks every
// problem size so the test suite drives the same code path in milliseconds.
// The matrix generator is seeded the same at every --seed: another generator
// seed moves the band offsets, and with them the dependency graph, the
// virtual time and the iteration counts — host_s then differs by up to 2.8×
// between seeds, which no regression bound survives. The workload is a fixed
// problem at a stated size; the seed drives what options() says.
func (w workload) spec(div int) matrix.Spec {
	s := w.base
	s.Linear.Seed = defaultSeed
	s.Sizes = make([]int, len(w.base.Sizes))
	for i, n := range w.base.Sizes {
		s.Sizes[i] = n / div
	}
	return s
}

// refCell returns the reference cell of the scaled spec.
func (w workload) refCell(s matrix.Spec) matrix.Cell {
	for _, c := range s.Cells() {
		if w.ref(c) {
			return c
		}
	}
	panic("benchmark: workload " + w.name + " has no reference cell")
}

// options are the sweep options every pass runs under: one simulated cell
// at a time (the harness never loads more threads than the two cores it
// pins itself to), and the seed as the network-jitter stream of simulated
// repetitions (repetition r draws from seed+r) and the loss stream of native
// ones.
func (w workload) options(seed int64) matrix.Options {
	return matrix.Options{Workers: 1, Reps: w.reps, Seed: seed}
}

var (
	syncAsync = []aiac.Mode{aiac.Sync, aiac.Async}
	simFast   = []string{"sim-fast"}
)

// workloads lists the five workloads in round-robin order. A pass of each
// takes two to four seconds on the reference box, so that a driver run
// (set-up, at least three timed passes, teardown) stays inside its share of
// the driver's time cap; the README records how each was measured and what
// it was scaled from.
var workloads = []workload{
	{
		name: "adsl-spin",
		why:  "async ranks behind ADSL spin through near-empty iterations: per-iteration simulator overhead (des, marcel, protocol step, trace record, critpath) dominates, kernel is minor",
		reps: 1,
		base: matrix.Spec{
			Envs: []string{"pm2", "omniorb"}, Modes: syncAsync, Grids: []string{"adsl"},
			Problems: []string{"linear"}, Procs: []int{4}, Sizes: []int{12000},
			Backends: simFast,
			Linear:   matrix.LinearParams{Diags: 12, Rho: 0.85, Eps: 1e-5, MaxIters: 3000000},
		},
		ref: func(c matrix.Cell) bool { return c.Env == "pm2" && c.Mode == aiac.Async },
	},
	{
		name: "sync-exchange",
		why:  "64 ranks in lockstep: every iteration is a halo exchange plus an allreduce, so the message path (des queue, envcore, netsim) dominates and the kernel is negligible",
		reps: 2,
		base: matrix.Spec{
			Envs: matrix.EnvNames, Modes: []aiac.Mode{aiac.Sync}, Grids: []string{"3site", "local"},
			Problems: []string{"linear"}, Procs: []int{64}, Sizes: []int{19200},
			Backends: simFast,
			Linear:   matrix.LinearParams{Diags: 12, Rho: 0.85, Eps: 1e-5, MaxIters: 3000000},
		},
		ref: func(c matrix.Cell) bool { return c.Env == "omniorb" && c.Grid == "3site" },
	},
	{
		name: "kernel-large",
		why:  "a quarter-million unknowns in two blocks on a fast LAN: the fused DIA gradient step dominates; the control for simulator-overhead work and the target for kernel work",
		reps: 5,
		base: matrix.Spec{
			Envs: []string{"pm2"}, Modes: syncAsync, Grids: []string{"local"},
			Problems: []string{"linear"}, Procs: []int{2}, Sizes: []int{250000},
			Backends: simFast,
			Linear:   matrix.LinearParams{Diags: 12, Rho: 0.85, Eps: 1e-5, MaxIters: 3000000},
		},
		ref: func(c matrix.Cell) bool { return c.Env == "pm2" && c.Mode == aiac.Async },
	},
	{
		name: "grid-dynamics",
		why:  "the same layers on their fault paths: netsim loss/partition/down branches, crash-restart-reconfirm in the protocol, scenario driver events, sync cells that end stalled",
		reps: 2,
		base: matrix.Spec{
			Envs: []string{"pm2", "omniorb"}, Modes: syncAsync, Grids: []string{"3site"},
			Problems: []string{"linear"}, Procs: []int{8}, Sizes: []int{12000},
			Scenarios: []string{"flaky-adsl", "node-churn", "lossy-wan", "diurnal-load"},
			Backends:  simFast,
			Linear:    matrix.LinearParams{Diags: 12, Rho: 0.85, Eps: 1e-5, MaxIters: 3000000},
		},
		ref: func(c matrix.Cell) bool {
			return c.Env == "pm2" && c.Mode == aiac.Async && c.Scenario == "node-churn"
		},
	},
	{
		name:   "native-loopback",
		why:    "goroutine ranks over chan and TCP loopback: des, marcel, envcore, netsim and trace do nothing; transport, codec, the wall-clock protocol driver and per-rep assembly do the work",
		reps:   5,
		native: true,
		base: matrix.Spec{
			Modes: syncAsync, Grids: []string{"multiproto"},
			Problems: []string{"linear"}, Procs: []int{2}, Sizes: []int{60000},
			Backends: []string{"chan", "tcp"},
			Linear:   matrix.LinearParams{Diags: 12, Rho: 0.995, Eps: 1e-5, MaxIters: 3000000},
		},
		ref: func(c matrix.Cell) bool { return c.Mode == aiac.Sync && c.Backend == "tcp" },
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

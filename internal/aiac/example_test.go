package aiac_test

import (
	"fmt"

	"aiac/internal/aiac"
	"aiac/internal/cluster"
	"aiac/internal/des"
	"aiac/internal/env/envcore"
	"aiac/internal/la"
	"aiac/internal/netsim"
	"aiac/internal/problems"
)

// ExampleRun solves a small sparse linear system with the AIAC engine on a
// simulated four-machine cluster: build a grid, deploy a middleware
// environment over it, and run the asynchronous iterations until the
// centralized detection declares global convergence. The simulation is
// deterministic, so the outcome is reproducible.
func ExampleRun() {
	sim := des.New()
	grid := cluster.Homogeneous(sim, 4, cluster.P4_1700, netsim.Ethernet100)
	env := envcore.MustNew(grid, envcore.Middleware("pm2", true))
	prob := problems.NewLinear(4000, 6, 0.8, 42)

	rep := aiac.Run(grid, env, prob, aiac.Config{Mode: aiac.Async, Eps: 1e-7})

	fmt.Println("reason:", rep.Reason)
	fmt.Println("solved:", la.MaxNormDiff(rep.X, prob.XTrue) < 1e-5)
	fmt.Println("ranks iterated:", len(rep.ItersPerRank))
	// Output:
	// reason: converged
	// solved: true
	// ranks iterated: 4
}

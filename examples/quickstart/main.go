// Quickstart: solve a sparse linear system with an AIAC algorithm on a
// simulated heterogeneous cluster and compare it with the synchronous SISC
// baseline.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"aiac/internal/aiac"
	"aiac/internal/cluster"
	"aiac/internal/des"
	"aiac/internal/env/envcore"
	"aiac/internal/la"
	"aiac/internal/problems"
)

func main() {
	// The test system: 20,000 unknowns, 12 off-diagonals, Jacobi spectral
	// radius below 0.8, known true solution.
	const n, diags = 20000, 12
	const rho, eps = 0.8, 1e-8

	fmt.Println("AIAC quickstart: fixed-step gradient on a sparse system")
	fmt.Printf("n=%d, %d off-diagonals, spectral radius < %.2f\n\n", n, diags, rho)

	// Asynchronous solve on a PM2-like environment over a local
	// heterogeneous cluster (Duron 800, P4 1.7, P4 2.4 interleaved).
	simA := des.New()
	gridA := cluster.LocalHeterogeneous(simA, 6)
	envA := envcore.MustNew(gridA, envcore.Middleware("pm2", true))
	probA := problems.NewLinear(n, diags, rho, 42)
	repA := aiac.Run(gridA, envA, probA, aiac.Config{Mode: aiac.Async, Eps: eps})
	fmt.Printf("AIAC  (async, pm2):      %12v  %s\n", repA.Elapsed, describe(repA, probA))

	// Synchronous baseline on classical MPI over the same cluster.
	simS := des.New()
	gridS := cluster.LocalHeterogeneous(simS, 6)
	envS := envcore.MustNew(gridS, envcore.Middleware("mpi", true))
	probS := problems.NewLinear(n, diags, rho, 42)
	repS := aiac.Run(gridS, envS, probS, aiac.Config{Mode: aiac.Sync, Eps: eps})
	fmt.Printf("SISC  (sync, mpi):       %12v  %s\n", repS.Elapsed, describe(repS, probS))

	fmt.Printf("\nspeed ratio (sync/async): %.2f\n", float64(repS.Elapsed)/float64(repA.Elapsed))
	fmt.Printf("async per-rank iterations: %v\n", repA.ItersPerRank)
	fmt.Println("(fast machines iterate more often — the asynchronous scheme never waits)")
}

func describe(rep *aiac.Report, prob *problems.Linear) string {
	return fmt.Sprintf("reason=%s  iters=%d  error vs truth=%.2e",
		rep.Reason, rep.TotalIters(), la.MaxNormDiff(rep.X, prob.XTrue))
}

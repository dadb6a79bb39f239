// Deployment demonstrates the paper's §5.3 comparison of deployment
// constraints: PM2 and MPICH/Madeleine require a complete interconnection
// graph, while the ORB's client/server architecture routes around blocked
// site pairs (firewall visibility problems) — at the cost of relayed
// traffic.
//
//	go run ./examples/deployment
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
	fmt.Println("Deployment over a grid with a firewall between sites 0 and 1 (§5.3)")
	fmt.Println()

	// Try to deploy each environment on the blocked grid.
	for _, name := range []string{"pm2", "madmpi", "omniorb"} {
		sim := des.New()
		grid := cluster.ThreeSiteEthernet(sim, 6)
		grid.Net.Block(0, 1)
		opts := envcore.Middleware(name, true)
		env, err := envcore.New(grid, opts)
		if err != nil {
			fmt.Printf("%-9s deployment FAILS:  %v\n", opts.Name, err)
			continue
		}
		// The ORB deploys; prove it also solves, relaying around the
		// firewall.
		prob := problems.NewLinear(6000, 8, 0.6, 9)
		rep := aiac.Run(grid, env, prob, aiac.Config{Mode: aiac.Async, Eps: 1e-7, MaxIters: 3000000})
		fmt.Printf("%-9s deployment works:  solved with relaying, %s, error=%.2e, time=%v\n",
			opts.Name, rep.Reason, la.MaxNormDiff(rep.X, prob.XTrue), rep.Elapsed)
	}
}

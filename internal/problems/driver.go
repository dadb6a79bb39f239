package problems

import (
	"aiac/internal/aiac"
	"aiac/internal/chem"
	"aiac/internal/cluster"
	"aiac/internal/des"
	"aiac/internal/gmres"
)

// ChemRun aggregates a full time-stepped simulation of the non-linear
// problem (§4.3: a main loop over the time interval, a barrier between time
// steps, asynchronous iterations inside each step).
type ChemRun struct {
	// Steps holds the engine report of every time step.
	Steps []*aiac.Report
	// Elapsed is the virtual time of the whole simulation.
	Elapsed des.Time
	// Y is the final state.
	Y []float64
}

// TotalIters sums the iterations of all ranks over all steps.
func (c *ChemRun) TotalIters() int {
	t := 0
	for _, s := range c.Steps {
		t += s.TotalIters()
	}
	return t
}

// AllConverged reports whether every time step detected global convergence
// (rather than hitting the iteration cap).
func (c *ChemRun) AllConverged() bool {
	for _, s := range c.Steps {
		if s.Reason != aiac.StopConverged {
			return false
		}
	}
	return true
}

// RunChem advances the chemical problem from y0 over [0, tEnd] in steps of
// h on the given grid and environment. Each step is one engine session; the
// engine's entry barrier provides the paper's per-time-step
// synchronisation. A step that ends on a non-finite residual ends the run:
// the later steps would start from its state.
func RunChem(grid *cluster.Grid, env aiac.Env, p *chem.Problem, y0 []float64, h, tEnd float64, gp gmres.Params, cfg aiac.Config) *ChemRun {
	run := &ChemRun{Y: make([]float64, len(y0))}
	copy(run.Y, y0)
	start := grid.Sim.Now()
	for t := 0.0; t < tEnd-1e-9; t += h {
		prob := NewChemStep(p, run.Y, h, t+h, gp)
		rep := aiac.Run(grid, env, prob, cfg)
		run.Steps = append(run.Steps, rep)
		run.Y = rep.X
		if rep.Reason == aiac.StopNonFinite {
			break
		}
	}
	run.Elapsed = grid.Sim.Now() - start
	return run
}

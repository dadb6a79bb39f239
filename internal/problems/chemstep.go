package problems

import (
	"fmt"
	"math"

	"aiac/internal/aiac"
	"aiac/internal/chem"
	"aiac/internal/gmres"
	"aiac/internal/newton"
)

// ChemStep is one implicit-Euler time step of the non-linear chemical
// problem as an AIAC fixed point: the iterate is the state y at t+h, one
// Update is one strip-local Newton iteration (multisplitting Newton, §4.2),
// and the data dependencies are the ghost grid rows adjacent to each strip
// (§4.3: "a given processor will have its dependencies coming only from its
// two direct neighbors").
type ChemStep struct {
	P     *chem.Problem
	YOld  []float64
	H     float64
	TEnd  float64
	Gmres gmres.Params

	rowBounds []int
	solvers   []*newton.StripSolver // per rank, with per-rank systems
}

// NewChemStep builds the step problem advancing yOld to tEnd = t+h.
func NewChemStep(p *chem.Problem, yOld []float64, h, tEnd float64, gp gmres.Params) *ChemStep {
	if gp.Tol <= 0 {
		gp.Tol = 1e-6
	}
	if gp.Restart <= 0 {
		gp.Restart = 20
	}
	if gp.MaxIters <= 0 {
		gp.MaxIters = 200
	}
	return &ChemStep{P: p, YOld: yOld, H: h, TEnd: tEnd, Gmres: gp}
}

// Name implements aiac.Problem.
func (c *ChemStep) Name() string {
	return fmt.Sprintf("chem-%dx%d-t%g", c.P.NX, c.P.NZ, c.TEnd)
}

// Size implements aiac.Problem.
func (c *ChemStep) Size() int { return c.P.N() }

// PartitionBounds implements aiac.Problem: strips of whole grid rows,
// converted to state indices.
func (c *ChemStep) PartitionBounds(nranks int) []int {
	c.rowBounds = chem.StripPartition(c.P.NZ, nranks)
	bounds := make([]int, nranks+1)
	for i, zr := range c.rowBounds {
		lo, _ := c.P.RowSegment(zr, zr)
		bounds[i] = lo
	}
	// Build one solver per rank, each with its own EulerSystem so the
	// scratch buffers are private (required by the wall-clock backend,
	// harmless under the DES).
	c.solvers = make([]*newton.StripSolver, nranks)
	for r := 0; r < nranks; r++ {
		sys := chem.NewEulerSystem(c.P, c.YOld, c.H, c.TEnd)
		lo, hi := c.P.RowSegment(c.rowBounds[r], c.rowBounds[r+1])
		c.solvers[r] = newton.NewStripSolver(sys, lo, hi, c.Gmres)
	}
	return bounds
}

// InitialVector implements aiac.Problem: the Newton iteration starts from
// the previous time step's state.
func (c *ChemStep) InitialVector() []float64 {
	y := make([]float64, len(c.YOld))
	copy(y, c.YOld)
	return y
}

// DepsFor implements aiac.Problem: the ghost rows directly above and below
// the strip.
func (c *ChemStep) DepsFor(rank int, bounds []int) []aiac.Segment {
	zlo, zhi := c.rowBounds[rank], c.rowBounds[rank+1]
	var deps []aiac.Segment
	if zlo > 0 {
		lo, hi := c.P.RowSegment(zlo-1, zlo)
		deps = append(deps, aiac.Segment{Lo: lo, Hi: hi})
	}
	if zhi < c.P.NZ {
		lo, hi := c.P.RowSegment(zhi, zhi+1)
		deps = append(deps, aiac.Segment{Lo: lo, Hi: hi})
	}
	return deps
}

// Update implements aiac.Problem: one strip Newton iteration
// (newtonResidual).
func (c *ChemStep) Update(rank int, bounds []int, x []float64) (residual, flops float64) {
	res, fl, err := c.solvers[rank].Iterate(x)
	return newtonResidual(res, err), fl
}

// newtonResidual is the residual a strip Newton iteration reports. A
// failed inner solve — possible transiently with badly stale ghost data —
// reports the largest finite residual, so the processor keeps iterating
// rather than declaring convergence; one that failed on non-finite data
// reports NaN, which ends the solve (aiac.StopNonFinite).
func newtonResidual(res float64, err error) float64 {
	if err != nil && !math.IsNaN(res) {
		return math.MaxFloat64
	}
	return res
}

var _ aiac.Problem = (*ChemStep)(nil)
